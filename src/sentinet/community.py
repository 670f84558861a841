"""Community detection and partition comparison on the retweet graph.

Modularity here is the weighted directed form: the observed arc weight
inside communities minus the in-degree/out-degree product expected under a
degree-preserving null model, normalized by total weight. Louvain
maximization runs on the symmetrized modularity matrix, which leaves the
argmax unchanged while allowing undirected-style local moves.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from pathlib import Path
from typing import Hashable, Mapping, NamedTuple

from .errors import (
    CoverageError,
    EmptyGraphError,
    NodeSetMismatchError,
    ParameterError,
    UndefinedScoreError,
)
from .fileio import read_records, write_lines
from .graph import RetweetGraph

Label = Hashable


class Partition(NamedTuple):
    """Node -> community assignment with cached member sets."""

    assignment: Mapping[str, Label]
    communities: Mapping[Label, frozenset[str]]

    @classmethod
    def from_assignment(cls, assignment: Mapping[str, Label]) -> "Partition":
        members: dict[Label, set[str]] = defaultdict(set)
        for node, label in assignment.items():
            members[label].add(node)
        return cls(
            assignment=dict(assignment),
            communities={label: frozenset(nodes) for label, nodes in members.items()},
        )

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.assignment)

    @property
    def sizes(self) -> dict[Label, int]:
        return {label: len(nodes) for label, nodes in self.communities.items()}

    def restrict(self, nodes: frozenset[str]) -> "Partition":
        return Partition.from_assignment(
            {node: label for node, label in self.assignment.items() if node in nodes}
        )


def modularity(graph: RetweetGraph, partition: Partition) -> float:
    """Directed weighted modularity of a partition.

    Computed per community as (internal weight - expected internal weight),
    summed with one rounding (``math.fsum``, so the value does not depend on
    community order) and divided by total weight. Always 0 for the
    one-community partition and bounded by [-1, 1].
    """
    if graph.w <= 0:
        raise EmptyGraphError("modularity undefined for zero-weight graph")
    assignment = partition.assignment
    for node in graph.nodes:
        if node not in assignment:
            raise CoverageError(f"node {node!r} missing from partition")
    internal: dict[Label, float] = defaultdict(float)
    for (source, retweeter), weight in graph.arcs.items():
        label = assignment[source]
        if label == assignment[retweeter]:
            internal[label] += weight
    terms = []
    for label, members in partition.communities.items():
        sum_in = sum(graph.w_in.get(node, 0) for node in members)
        sum_out = sum(graph.w_out.get(node, 0) for node in members)
        terms.append(internal.get(label, 0.0) - (sum_in * sum_out) / graph.w)
    return math.fsum(terms) / graph.w


def louvain(graph: RetweetGraph, seed: int = 0) -> Partition:
    """Greedy multi-phase Louvain maximization of directed modularity.

    Node sweep order is shuffled by ``seed`` (results are deterministic for
    a fixed seed). Moves are accepted only for strictly positive modularity
    gain, so the result never scores below the singleton partition.
    """
    return louvain_phase_partitions(graph, seed)[-1]


def louvain_phase_partitions(graph: RetweetGraph, seed: int = 0) -> list[Partition]:
    """Partition of the original nodes after each Louvain phase.

    The local-move gains come from the symmetrized modularity matrix: the
    gain of placing node v into community c combines arc weight between v
    and c in both directions minus the null-model terms
    (w_in[v]*sum_out(c) + w_out[v]*sum_in(c)) / w.
    """
    if not graph.nodes or graph.w <= 0:
        raise EmptyGraphError("louvain requires a nonempty weighted graph")
    rng = random.Random(seed)
    total_weight = float(graph.w)

    # Condensed state: supernode index -> member original nodes.
    originals = sorted(graph.nodes)
    index_of = {node: i for i, node in enumerate(originals)}
    groups: list[list[str]] = [[node] for node in originals]
    arcs: dict[tuple[int, int], float] = {}
    for (source, retweeter), weight in graph.arcs.items():
        arcs[(index_of[source], index_of[retweeter])] = float(weight)

    phases: list[Partition] = []
    while True:
        count = len(groups)
        w_in = [0.0] * count
        w_out = [0.0] * count
        # arc weight between two supernodes, both directions summed; no self-loops
        neighbours: list[defaultdict[int, float]] = [defaultdict(float) for _ in range(count)]
        for (source, retweeter), weight in arcs.items():
            w_in[source] += weight
            w_out[retweeter] += weight
            if source != retweeter:
                neighbours[source][retweeter] += weight
                neighbours[retweeter][source] += weight

        labels = list(range(count))
        sum_in = w_in[:]
        sum_out = w_out[:]
        moved_in_phase = False
        while True:
            moved = False
            order = list(range(count))
            rng.shuffle(order)
            for node in order:
                home = labels[node]
                link: defaultdict[int, float] = defaultdict(float)
                for other, weight in neighbours[node].items():
                    link[labels[other]] += weight
                node_in, node_out = w_in[node], w_out[node]
                sum_in[home] -= node_in
                sum_out[home] -= node_out
                # home first, so a move needs a strictly larger gain
                best_label = home
                best_gain = -math.inf
                for candidate in (home, *sorted(link)):
                    null = (
                        node_in * sum_out[candidate] + node_out * sum_in[candidate]
                    ) / total_weight
                    gain = link.get(candidate, 0.0) - null
                    if gain > best_gain:
                        best_gain = gain
                        best_label = candidate
                labels[node] = best_label
                sum_in[best_label] += node_in
                sum_out[best_label] += node_out
                if best_label != home:
                    moved = True
                    moved_in_phase = True
            if not moved:
                break

        # Expand condensed labels to original nodes and record the phase.
        community_members: dict[int, list[str]] = defaultdict(list)
        for node, label in enumerate(labels):
            community_members[label].extend(groups[node])
        phases.append(_canonical_partition(community_members.values()))
        if not moved_in_phase:
            break

        # Aggregate communities into supernodes for the next phase.
        relabel = {old: new for new, old in enumerate(sorted(community_members))}
        groups = [
            sorted(community_members[old]) for old in sorted(community_members)
        ]
        new_arcs: dict[tuple[int, int], float] = {}
        for (source, retweeter), weight in arcs.items():
            key = (relabel[labels[source]], relabel[labels[retweeter]])
            new_arcs[key] = new_arcs.get(key, 0.0) + weight
        arcs = new_arcs
    return phases


def _canonical_partition(member_groups) -> Partition:
    """Relabel communities 0..K-1 ordered by their smallest member id."""
    ordered = sorted(member_groups, key=min)
    assignment = {
        node: label for label, members in enumerate(ordered) for node in members
    }
    return Partition.from_assignment(assignment)


def _pair_counts(p1: Partition, p2: Partition) -> tuple[int, int, int, int, int]:
    """(n, total pairs, same-pairs in p1, same-pairs in p2, same in both)."""
    if p1.nodes != p2.nodes:
        raise NodeSetMismatchError(
            "partitions must cover the same node set; restrict to common nodes first"
        )
    n = len(p1.nodes)
    pairs_total = n * (n - 1) // 2
    same1 = sum(s * (s - 1) // 2 for s in p1.sizes.values())
    same2 = sum(s * (s - 1) // 2 for s in p2.sizes.values())
    cells: dict[tuple[Label, Label], int] = defaultdict(int)
    for node in p1.nodes:
        cells[(p1.assignment[node], p2.assignment[node])] += 1
    same_both = sum(c * (c - 1) // 2 for c in cells.values())
    return n, pairs_total, same1, same2, same_both


def restrict_to_common(p1: Partition, p2: Partition) -> tuple[Partition, Partition]:
    common = p1.nodes & p2.nodes
    return p1.restrict(common), p2.restrict(common)


def rand_index(p1: Partition, p2: Partition) -> float:
    """Fraction of node pairs classified consistently by both partitions."""
    n, pairs_total, same1, same2, same_both = _pair_counts(p1, p2)
    if pairs_total == 0:
        raise ParameterError("rand index needs at least two nodes")
    agreements = pairs_total - same1 - same2 + 2 * same_both
    return agreements / pairs_total


def z_rand(p1: Partition, p2: Partition) -> float:
    """Standardized count of co-classified pairs under the hypergeometric null.

    The observed number of node pairs placed together by both partitions is
    compared with its mean and standard deviation over random partitions
    with the same community sizes. Exact rational arithmetic avoids the
    cancellation the variance expression invites.
    """
    from fractions import Fraction  # imported here: no pipeline stage calls this

    n, pairs_total, same1, same2, same_both = _pair_counts(p1, p2)
    if n < 4:
        raise UndefinedScoreError("z-rand variance needs at least 4 nodes")
    cubes1 = sum(s**3 for s in p1.sizes.values())
    cubes2 = sum(s**3 for s in p2.sizes.values())
    c1 = n * (n * n - 3 * n - 2) - 8 * (n + 1) * same1 + 4 * cubes1
    c2 = n * (n * n - 3 * n - 2) - 8 * (n + 1) * same2 + 4 * cubes2
    a1 = 4 * same1 - 2 * pairs_total
    a2 = 4 * same2 - 2 * pairs_total
    variance = (
        Fraction(pairs_total, 16)
        - Fraction(a1 * a1 * a2 * a2, 256 * pairs_total * pairs_total)
        + Fraction(c1 * c2, 16 * n * (n - 1) * (n - 2))
        + Fraction(
            (a1 * a1 - 4 * c1 - 4 * pairs_total) * (a2 * a2 - 4 * c2 - 4 * pairs_total),
            64 * n * (n - 1) * (n - 2) * (n - 3),
        )
    )
    if variance <= 0:
        raise UndefinedScoreError("degenerate partitions: zero pair-count variance")
    mean = Fraction(same1 * same2, pairs_total)
    return float(Fraction(same_both) - mean) / math.sqrt(float(variance))


def write_partition(partition: Partition, path: str | Path) -> None:
    """Write 'node_id community_label' lines, sorted by node id."""
    write_lines(path, (f"{node} {partition.assignment[node]}" for node in sorted(partition.nodes)))


def read_partition(path: str | Path) -> Partition:
    """A partition from :func:`write_partition`'s lines; a node listed twice is a ValueError."""
    assignment: dict[str, Label] = {}
    for node, label in read_records(path):
        if node in assignment:
            raise ValueError(f"node {node!r} listed twice")
        assignment[node] = label
    return Partition.from_assignment(assignment)
