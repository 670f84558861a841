"""Seeded inputs of the benchmark workloads.

The program only ever sees the files written here: a JSON Lines corpus with
a pipeline config file, or a retweet edge list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from sentinet.config import PipelineConfig, write_config
from sentinet.ingest import write_corpus
from sentinet.synthetic import GroundTruth, SyntheticSpec, generate_corpus

# SyntheticSpec fields per corpus workload. Both keep more viral copies per
# cluster (6 or 16 communities x 15 hubs) than the 50-entry window of
# lsa._gap_select. corpus-long is 28 days of 18 communities, with the viral
# day in the last week. corpus-wide is 14 days of 48 communities, near the
# paper's top 50: cross-cluster community pairs, and so cosine calls, grow
# with the square of the community count.
CORPUS_SHAPES = {
    "corpus-long": {
        "n_days": 28,
        "communities_per_cluster": 6,
        "viral_day_index": 23,
        "split_day_index": 18,
    },
    "corpus-wide": {
        "n_days": 14,
        "communities_per_cluster": 16,
        "viral_day_index": 11,
        "split_day_index": 9,
    },
}

# At this density Louvain stops short of the planted partition (q_ratio
# 0.93-0.95, ROADMAP item 5); denser graphs hide that defect
PLANTED_ACCOUNTS = 20_000
PLANTED_COMMUNITIES = 50
PLANTED_INTERNAL = 0.85
PLANTED_ARCS = 100_000


@dataclass(frozen=True)
class CorpusInput:
    config_path: Path
    truth: GroundTruth
    viral_clusters: tuple[int, ...]
    records: int
    days: int
    communities: int


@dataclass(frozen=True)
class PlantedInput:
    edges_path: Path
    planted: dict[str, str]  # account -> planted community
    accounts: int
    arcs: int
    communities: int


def make_corpus(seed: int, directory: Path, shape: str) -> CorpusInput:
    """Write corpus.jsonl and run.cfg (output dir set per job) into ``directory``."""
    spec = SyntheticSpec(seed=seed, **CORPUS_SHAPES[shape])
    records, truth = generate_corpus(spec)
    corpus = directory / "corpus.jsonl"
    write_corpus(records, corpus)
    config = PipelineConfig(
        corpus=corpus.resolve(),
        output_dir=(directory / "out").resolve(),
        window_start=truth.window[0],
        window_end=truth.window[1],
        split=truth.split,
    )
    config_path = directory / "run.cfg"
    write_config(config, config_path)
    return CorpusInput(
        config_path=config_path,
        truth=truth,
        viral_clusters=spec.viral_clusters,
        records=len(records),
        days=spec.n_days,
        communities=len(truth.communities),
    )


def make_planted_graph(seed: int, directory: Path) -> PlantedInput:
    """Write planted.edges, a planted-partition retweet digraph, into ``directory``.

    The file is a 'source retweeter weight' edge list.

    Communities are equal-sized. Each arc picks its retweeter uniformly; with
    probability PLANTED_INTERNAL the retweeted source comes from the
    retweeter's community, otherwise from a uniformly chosen other one.
    Arcs are distinct and weight 1.
    """
    rng = random.Random(seed)
    size = PLANTED_ACCOUNTS // PLANTED_COMMUNITIES
    arcs: set[tuple[int, int]] = set()
    while len(arcs) < PLANTED_ARCS:
        retweeter = rng.randrange(PLANTED_ACCOUNTS)
        community = retweeter // size
        if rng.random() >= PLANTED_INTERNAL:
            other = rng.randrange(PLANTED_COMMUNITIES - 1)
            community = other + (other >= community)
        source = community * size + rng.randrange(size)
        if source != retweeter:
            arcs.add((source, retweeter))
    edges = directory / "planted.edges"
    with open(edges, "w", encoding="utf-8") as handle:
        handle.writelines(f"a{s:06d} a{r:06d} 1\n" for s, r in sorted(arcs))
    planted = {f"a{i:06d}": str(i // size) for i in range(PLANTED_ACCOUNTS)}
    return PlantedInput(
        edges_path=edges,
        planted=planted,
        accounts=PLANTED_ACCOUNTS,
        arcs=len(arcs),
        communities=PLANTED_COMMUNITIES,
    )
