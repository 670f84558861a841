import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import oracles
from conftest import record_fields, retweet_graphs
from sentinet.community import (
    Partition,
    louvain,
    louvain_phase_partitions,
    modularity,
    rand_index,
    read_partition,
    restrict_to_common,
    write_partition,
    z_rand,
)
from sentinet.errors import (
    CoverageError,
    NodeSetMismatchError,
    UndefinedScoreError,
)
from sentinet.graph import RetweetGraph

TWO_CYCLES = RetweetGraph.from_arcs(
    {
        ("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1,
        ("x", "y"): 1, ("y", "z"): 1, ("z", "x"): 1,
        ("a", "x"): 1,
    }
)
CYCLE_SPLIT = Partition.from_assignment(
    {"a": 0, "b": 0, "c": 0, "x": 1, "y": 1, "z": 1}
)


class TestModularity:
    @given(retweet_graphs())
    @settings(max_examples=100)
    def test_one_community_is_exactly_zero(self, graph):
        assert modularity(graph, oracles.one_community_partition(graph)) == pytest.approx(
            0.0, abs=1e-12
        )

    @given(retweet_graphs())
    @settings(max_examples=100)
    def test_singleton_closed_form(self, graph):
        expected = -sum(
            graph.w_in[node] * graph.w_out[node] for node in graph.nodes
        ) / graph.w**2
        assert modularity(graph, oracles.singleton_partition(graph)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_two_cycle_fixture_matches_direct_sum(self):
        value = modularity(TWO_CYCLES, CYCLE_SPLIT)
        assert value == pytest.approx(
            oracles.modularity_direct(TWO_CYCLES, CYCLE_SPLIT), abs=1e-12
        )

    @given(retweet_graphs())
    @settings(max_examples=60)
    def test_matches_direct_sum_on_random_partitions(self, graph):
        nodes = sorted(graph.nodes)
        partition = Partition.from_assignment(
            {node: i % 3 for i, node in enumerate(nodes)}
        )
        assert modularity(graph, partition) == pytest.approx(
            oracles.modularity_direct(graph, partition), abs=1e-12
        )

    def test_missing_node_raises(self):
        partition = Partition.from_assignment({"a": 0})
        with pytest.raises(CoverageError):
            modularity(TWO_CYCLES, partition)

    def test_independent_of_community_order(self):
        # 17 communities whose order in Partition.communities follows the
        # order of the assignment; a plain float sum over them moves in the
        # last bit when that order is reversed
        rng = random.Random(0)
        nodes = [f"u{i}" for i in range(120)]
        arcs = {}
        for _ in range(600):
            source, retweeter = rng.sample(nodes, 2)
            arcs[(source, retweeter)] = arcs.get((source, retweeter), 0) + rng.randint(1, 5)
        graph = RetweetGraph.from_arcs(arcs)
        assignment = {node: rng.randrange(17) for node in sorted(graph.nodes)}
        forward = Partition.from_assignment(assignment)
        backward = Partition.from_assignment(dict(reversed(list(assignment.items()))))
        assert list(forward.communities) != list(backward.communities)
        assert modularity(graph, forward) == modularity(graph, backward)

    @given(retweet_graphs())
    @settings(max_examples=60)
    def test_symmetrization_identity(self, graph):
        """Modularity from the symmetrized matrix B/2 equals the plain value."""
        nodes = sorted(graph.nodes)
        partition = Partition.from_assignment(
            {node: i % 2 for i, node in enumerate(nodes)}
        )
        w = graph.w
        plain = 0.0
        symmetrized = 0.0
        for i in nodes:
            for j in nodes:
                if partition.assignment[i] != partition.assignment[j]:
                    continue
                m_ij = graph.arcs.get((i, j), 0) - graph.w_in[i] * graph.w_out[j] / w
                m_ji = graph.arcs.get((j, i), 0) - graph.w_in[j] * graph.w_out[i] / w
                plain += m_ij
                symmetrized += (m_ij + m_ji) / 2
        assert plain / w == pytest.approx(symmetrized / w, abs=1e-12)
        assert modularity(graph, partition) == pytest.approx(plain / w, abs=1e-12)


class TestLouvain:
    def test_two_cycles_found_exactly(self):
        partition = louvain(TWO_CYCLES, seed=1)
        groups = {frozenset(m) for m in partition.communities.values()}
        assert groups == {frozenset("abc"), frozenset("xyz")}

    def test_single_cycle_is_one_community(self):
        graph = RetweetGraph.from_arcs({("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1})
        partition = louvain(graph, seed=0)
        assert len(partition.communities) == 1

    def test_two_cycle_matches_exhaustive_optimum(self):
        best = oracles.exhaustive_best_modularity(TWO_CYCLES)
        found = modularity(TWO_CYCLES, louvain(TWO_CYCLES, seed=0))
        assert found == pytest.approx(best, abs=1e-12)

    def test_deterministic_given_seed(self):
        first = louvain(TWO_CYCLES, seed=17)
        second = louvain(TWO_CYCLES, seed=17)
        assert first.assignment == second.assignment

    @given(retweet_graphs())
    @settings(max_examples=40, deadline=None)
    def test_never_below_singletons_and_never_above_exhaustive(self, graph):
        found = modularity(graph, louvain(graph, seed=5))
        assert found >= modularity(graph, oracles.singleton_partition(graph)) - 1e-12
        assert found <= oracles.exhaustive_best_modularity(graph) + 1e-12

    @given(retweet_graphs())
    @settings(max_examples=30, deadline=None)
    def test_phase_monotonicity(self, graph):
        phases = louvain_phase_partitions(graph, seed=2)
        values = [modularity(graph, partition) for partition in phases]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-12


class TestRandIndex:
    def test_identical_partitions(self):
        partition = Partition.from_assignment({"a": 0, "b": 0, "c": 1, "d": 1})
        assert rand_index(partition, partition) == 1.0

    def test_total_disagreement(self):
        lumped = Partition.from_assignment({n: 0 for n in "abcd"})
        split = Partition.from_assignment({n: n for n in "abcd"})
        assert rand_index(lumped, split) == 0.0

    def test_one_third_fixture(self):
        p1 = Partition.from_assignment({"a": 0, "b": 0, "c": 1, "d": 1})
        p2 = Partition.from_assignment({"a": 0, "b": 1, "c": 0, "d": 1})
        assert rand_index(p1, p2) == pytest.approx(1 / 3)

    def test_mismatched_nodes_raise(self):
        p1 = Partition.from_assignment({"a": 0, "b": 0})
        p2 = Partition.from_assignment({"a": 0, "c": 0})
        with pytest.raises(NodeSetMismatchError):
            rand_index(p1, p2)

    def test_restrict_to_common(self):
        p1 = Partition.from_assignment({"a": 0, "b": 0, "c": 1})
        p2 = Partition.from_assignment({"b": 5, "c": 5, "d": 9})
        q1, q2 = restrict_to_common(p1, p2)
        assert q1.nodes == q2.nodes == {"b", "c"}

    @given(retweet_graphs())
    @settings(max_examples=40)
    def test_symmetry_and_relabel_invariance(self, graph):
        nodes = sorted(graph.nodes)
        if len(nodes) < 2:
            return
        p1 = Partition.from_assignment({n: i % 2 for i, n in enumerate(nodes)})
        p2 = Partition.from_assignment({n: i % 3 for i, n in enumerate(nodes)})
        relabeled = Partition.from_assignment(
            {n: f"community-{label}" for n, label in p2.assignment.items()}
        )
        assert rand_index(p1, p2) == rand_index(p2, p1)
        assert rand_index(p1, relabeled) == rand_index(p1, p2)


class TestZRand:
    def test_identical_balanced_partition_positive(self):
        nodes = [f"n{i}" for i in range(20)]
        partition = Partition.from_assignment({n: i % 2 for i, n in enumerate(nodes)})
        assert z_rand(partition, partition) > 0

    def test_random_pair_matches_permutation_oracle(self):
        # fixed pair of independent 2-partitions, moderate |z| by seed choice
        import numpy as np

        rng = np.random.default_rng(11)
        nodes = [f"n{i:02d}" for i in range(50)]
        l1 = rng.integers(0, 2, size=50)
        l2 = rng.integers(0, 2, size=50)
        p1 = Partition.from_assignment({n: int(l1[i]) for i, n in enumerate(nodes)})
        p2 = Partition.from_assignment({n: int(l2[i]) for i, n in enumerate(nodes)})
        analytic = z_rand(p1, p2)
        monte_carlo = oracles.zrand_monte_carlo(p1, p2, 100_000, seed=0)
        assert math.isfinite(analytic)
        assert abs(analytic - monte_carlo) <= 0.10 * abs(monte_carlo)

    def test_degenerate_partition_raises(self):
        nodes = [f"n{i}" for i in range(10)]
        lumped = Partition.from_assignment({n: 0 for n in nodes})
        split = Partition.from_assignment({n: i % 2 for i, n in enumerate(nodes)})
        with pytest.raises(UndefinedScoreError):
            z_rand(lumped, split)


class TestPartitionIO:
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(record_fields, record_fields, min_size=1, max_size=8))
    @example({"a": 0, "b": 0, "c": 1})
    def test_roundtrip(self, tmp_path, assignment):
        partition = Partition.from_assignment(assignment)
        path = tmp_path / "partition.txt"
        write_partition(partition, path)
        loaded = read_partition(path)
        # labels read back as text
        assert loaded.assignment == {node: str(label) for node, label in assignment.items()}

    def test_node_listed_twice_is_an_error(self, tmp_path):
        path = tmp_path / "partition.txt"
        path.write_text("a 0\nb 0\na 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="'a' listed twice"):
            read_partition(path)
