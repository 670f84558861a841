"""Weighted directed retweet graph construction and component extraction."""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .errors import EmptyGraphError
from .fileio import read_records, write_lines
from .ingest import Corpus

Arc = tuple[str, str]


class RetweetGraph(NamedTuple):
    """Directed multigraph summary: arc (source, retweeter) -> retweet count.

    ``w_in[k]`` counts how often account k was retweeted, ``w_out[k]`` how
    often it retweeted others; ``w`` is the total retweet count. Self-loops
    are disallowed and every weight is a positive integer.
    """

    nodes: frozenset[str]
    arcs: Mapping[Arc, int]
    w_in: Mapping[str, int]
    w_out: Mapping[str, int]
    w: int

    @property
    def n(self) -> int:
        return len(self.nodes)

    @classmethod
    def from_arcs(cls, arcs: Mapping[Arc, int]) -> "RetweetGraph":
        clean: dict[Arc, int] = {}
        for (source, retweeter), weight in arcs.items():
            if source == retweeter:
                raise ValueError(f"self-loop not allowed: {source!r}")
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(f"arc weight must be a positive integer, got {weight!r}")
            clean[(source, retweeter)] = weight
        nodes = frozenset(x for arc in clean for x in arc)
        w_in = {node: 0 for node in nodes}
        w_out = {node: 0 for node in nodes}
        total = 0
        for (source, retweeter), weight in clean.items():
            w_in[source] += weight
            w_out[retweeter] += weight
            total += weight
        return cls(nodes=nodes, arcs=clean, w_in=w_in, w_out=w_out, w=total)


def build_retweet_graph(corpus: Corpus) -> RetweetGraph:
    """Count retweet events into arc weights, dropping self-retweets.

    Accounts that neither retweet nor get retweeted do not appear in the
    graph. Each retweet row is packed into one (source, retweeter) code of
    two account indices, and the codes are counted at once.
    """
    source, retweeter = corpus.retweeted, corpus.author
    kept = (source >= 0) & (source != retweeter)
    width = len(corpus.accounts)
    codes, weights = np.unique(
        source[kept].astype(np.int64) * width + retweeter[kept], return_counts=True
    )
    accounts = corpus.accounts
    return RetweetGraph.from_arcs(
        {
            (accounts[code // width], accounts[code % width]): weight
            for code, weight in zip(codes.tolist(), weights.tolist())
        }
    )


def weak_components(graph: RetweetGraph) -> list[frozenset[str]]:
    """Weakly connected node sets, largest first (ties: smallest min node id)."""
    neighbors: dict[str, set[str]] = {node: set() for node in graph.nodes}
    for source, retweeter in graph.arcs:
        neighbors[source].add(retweeter)
        neighbors[retweeter].add(source)
    seen: set[str] = set()
    components = []
    for start in sorted(graph.nodes):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        members = {start}
        while queue:
            node = queue.popleft()
            for other in neighbors[node]:
                if other not in seen:
                    seen.add(other)
                    members.add(other)
                    queue.append(other)
        components.append(frozenset(members))
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def largest_component(graph: RetweetGraph) -> RetweetGraph:
    """Induced subgraph on the largest weakly connected node set.

    A graph that is weakly connected is its own largest component, and is
    returned as it is.
    """
    if not graph.nodes:
        raise EmptyGraphError("graph has no nodes")
    keep = weak_components(graph)[0]
    if len(keep) == graph.n:
        return graph
    arcs = {arc: weight for arc, weight in graph.arcs.items() if arc[0] in keep}
    return RetweetGraph.from_arcs(arcs)


def write_edges(graph: RetweetGraph, path: str | Path) -> None:
    """Write the arc list as 'source retweeter weight' lines, in (source, retweeter) order."""
    arcs = graph.arcs
    write_lines(
        path, (f"{source} {retweeter} {arcs[source, retweeter]}" for source, retweeter in sorted(arcs))
    )


def read_edges(path: str | Path) -> RetweetGraph:
    arcs: dict[Arc, int] = {}
    for src, retweeter, weight in read_records(path):
        arcs[(src, retweeter)] = arcs.get((src, retweeter), 0) + int(weight)
    return RetweetGraph.from_arcs(arcs)
