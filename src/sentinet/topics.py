"""Substring-lexicon topic filters and per-capita tweet rate tables.

Topic membership is plain case-insensitive substring containment against the
raw tweet text, since several lexicon phrases carry punctuation that
tokenization would destroy. Subtopics filter their parent topic's matches,
so a subtopic count can never exceed its parent's. Matched tweets feed a
seeded, community-balanced coding sample per cluster and topic. Rate tables
take plain tallies: active account days per community, and per-day tweet
counts and active-account counts per cluster as arrays over the window.
"""

from __future__ import annotations

import random
from datetime import date
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .community import Label
from .errors import ParameterError
from .fileio import read_lines, write_csv
from .ingest import PACKAGED, Corpus


class TopicLexicon(NamedTuple):
    """Named set of lowercase substrings, optionally refining a parent topic."""

    name: str
    substrings: tuple[str, ...]
    parent: str | None = None


# topic name -> (packaged lexicon file, parent topic)
DEFAULT_TOPIC_TREE: dict[str, tuple[str, str | None]] = {
    "covid": ("covid.txt", None),
    "plandemic": ("plandemic.txt", "covid"),
    "hydroxychloroquine": ("hydroxychloroquine.txt", "covid"),
    "facemasks": ("facemasks.txt", "covid"),
    "mortality": ("mortality.txt", "covid"),
    "severity": ("severity.txt", "covid"),
    "downplay": ("downplay.txt", "severity"),
    "vaccines": ("vaccines.txt", "covid"),
    "vaccine_hesitancy": ("vaccine_hesitancy.txt", "vaccines"),
    "vaccine_misinformation": ("vaccine_misinformation.txt", "vaccines"),
}


def load_lexicons(directory: str | Path | None = None) -> dict[str, TopicLexicon]:
    """Load the default topic tree, from a directory or the packaged data.

    A directory override must contain the same file names as the packaged
    tree; parent relationships are fixed by :data:`DEFAULT_TOPIC_TREE`.
    """
    base = Path(PACKAGED["lexicon_dir"] if directory is None else directory)
    return {
        name: TopicLexicon(
            name, tuple(line.lower() for line in read_lines(base / filename)), parent
        )
        for name, (filename, parent) in DEFAULT_TOPIC_TREE.items()
    }


def filter_topic_tree(
    corpus: Corpus, rows: Sequence[int], lexicons: Mapping[str, TopicLexicon]
) -> dict[str, np.ndarray]:
    """The ``rows`` of ``corpus`` whose text each lexicon matches, in their order.

    A row matches a lexicon when its raw text contains one of the lexicon's
    substrings, case-insensitively. Lexicons apply in parent-before-child
    order, and each subtopic filters its parent's matches, which keeps the
    subset relationship between topic and subtopic counts by construction.
    Each text is decoded and lowercased once, not once per lexicon, and
    each needle is tested across the whole pool in one pass.

    Each pool's texts are also joined once with ``"\\n"``, and a needle
    absent from the joined string is skipped: every text is a substring of
    it, so the needle is absent from every text too. A needle found in it
    may still occur only across the join of two texts, so a found needle
    is tested against each text as before, and the skip never adds a
    match. The gain is in the needles a pool lacks: where every needle
    occurs in every pool, the skip saves nothing and costs one more scan
    per needle, which stops at the needle's first occurrence.
    """
    # topic -> (matching rows, their lowercased texts), in row order; only a
    # parent's pool is read, so other topics keep no texts
    rows = np.asarray(rows, dtype=np.intp)
    parents = {lexicon.parent for lexicon in lexicons.values()}
    matched: dict[str, tuple[np.ndarray, list[str]]] = {}
    everything = (rows, corpus.texts.take(rows).lowered())
    # parent topic (None for every row) -> its pool's texts joined
    joined: dict[str | None, str] = {}
    remaining = dict(lexicons)
    while remaining:
        progressed = False
        for name in sorted(remaining):
            lexicon = remaining[name]
            if lexicon.parent is None:
                pool = everything
            elif lexicon.parent in matched:
                pool = matched[lexicon.parent]
            else:
                continue
            pool_rows, texts = pool
            if lexicon.parent not in joined:
                joined[lexicon.parent] = "\n".join(texts)
            hits = [False] * len(texts)
            for needle in lexicon.substrings:
                if needle in joined[lexicon.parent]:
                    hits = [hit or needle in text for hit, text in zip(hits, texts)]
            matched[name] = (
                pool_rows[np.frombuffer(bytes(hits), dtype=bool)],
                list(compress(texts, hits)) if name in parents else [],
            )
            del remaining[name]
            progressed = True
        if not progressed:
            raise ParameterError(
                f"unresolvable lexicon parents: {sorted(remaining)}"
            )
    return {name: topic_rows for name, (topic_rows, _) in matched.items()}


class RateRow(NamedTuple):
    """One line of ``rates.csv``; the field names are its header.

    The ``count`` field hides ``tuple.count``.
    """

    topic: str
    community: Label
    count: int
    active_account_days: int
    per_capita: float
    sum_scaled: float | None
    max_scaled: float | None


class RateTable(NamedTuple):
    """Per-community topical rates plus per-cluster daily series.

    ``daily`` maps (topic, cluster) to per-day tweets per 15 active
    accounts; a None rate marks a day with no active accounts.
    """

    rows: tuple[RateRow, ...]
    daily: Mapping[tuple[str, Label], tuple[tuple[date, float | None], ...]]
    excluded: tuple[tuple[str, Label], ...]


def rate_table(
    counts: Mapping[str, Mapping[Label, int]],
    account_days: Mapping[Label, int],
    days: Sequence[date],
    daily_counts: Mapping[str, Mapping[Label, np.ndarray]],
    daily_active: Mapping[Label, np.ndarray],
) -> RateTable:
    """Normalize topical tweet counts by active account days.

    Per-capita rate divides a community's count by its active account days
    (``account_days``); sum-scaling divides by the sum of per-capita rates
    across communities, max-scaling by their maximum. Communities with zero
    active account days are excluded and reported. ``daily_counts`` holds,
    per topic and cluster, the tweets of each of ``days``, and
    ``daily_active`` each cluster's active accounts on them; a daily
    cluster rate is count * 15 divided by that day's active tally.
    """
    rows: list[RateRow] = []
    excluded: list[tuple[str, Label]] = []
    for topic in sorted(counts):
        per_capita: dict[Label, float] = {}
        for community in sorted(counts[topic], key=str):
            if account_days[community] <= 0:
                excluded.append((topic, community))
            else:
                per_capita[community] = counts[topic][community] / account_days[community]
        rate_sum = sum(per_capita.values())
        rate_max = max(per_capita.values(), default=0.0)
        for community, rate in per_capita.items():
            rows.append(
                RateRow(
                    topic=topic,
                    community=community,
                    count=counts[topic][community],
                    active_account_days=account_days[community],
                    per_capita=rate,
                    sum_scaled=rate / rate_sum if rate_sum > 0 else None,
                    max_scaled=rate / rate_max if rate_max > 0 else None,
                )
            )
    daily: dict[tuple[str, Label], tuple[tuple[date, float | None], ...]] = {}
    for topic in sorted(daily_counts):
        for cluster in sorted(daily_counts[topic], key=str):
            daily[(topic, cluster)] = tuple(
                (day, count * 15 / active if active > 0 else None)
                for day, count, active in zip(
                    days, daily_counts[topic][cluster].tolist(), daily_active[cluster].tolist()
                )
            )
    return RateTable(rows=tuple(rows), daily=daily, excluded=tuple(excluded))


def write_counts_csv(
    matched: Mapping[Label, Mapping[str, Sequence[int]]], path: str | Path
) -> None:
    """Write topic,community,count rows, topic-major, from per-community matches."""
    topics = sorted({topic for per_topic in matched.values() for topic in per_topic})
    write_csv(
        path,
        ["topic", "community", "count"],
        (
            [topic, community, len(matched[community][topic])]
            for topic in topics
            for community in sorted(matched, key=str)
        ),
    )


def write_rates_csv(table: RateTable, path: str | Path) -> None:
    write_csv(path, RateRow._fields, table.rows)


def write_daily_csv(table: RateTable, path: str | Path) -> None:
    write_csv(
        path,
        ["topic", "cluster", "day", "tweets_per_15_active"],
        (
            [topic, cluster, day.isoformat(), rate]
            for (topic, cluster), series in sorted(
                table.daily.items(), key=lambda item: (item[0][0], str(item[0][1]))
            )
            for day, rate in series
        ),
    )


def stratified_coding_sample(
    corpus: Corpus,
    rows_by_cluster_topic: Mapping[tuple[str, str], Sequence[tuple[str, int]]],
    per_stratum: int = 100,
    seed: int = 0,
) -> list[tuple[str, str, str, int]]:
    """Seeded coding sample: up to ``per_stratum`` tweets per cluster-topic.

    Entries are (community, row of ``corpus``) pairs; communities inside a
    stratum are balanced round-robin so one prolific community cannot
    dominate the sample. Returns (cluster, topic, community, row) tuples.
    """
    rng = random.Random(seed)
    sampled = []
    for (cluster, topic) in sorted(rows_by_cluster_topic):
        entries = rows_by_cluster_topic[(cluster, topic)]
        by_community: dict[str, list[int]] = {}
        for community, row in entries:
            by_community.setdefault(community, []).append(row)
        queues = {}
        for community in sorted(by_community):
            rows = by_community[community]
            # the pool in tweet-id order, each id decoded once
            ids = corpus.tweet_ids.take(rows)
            pool = [row for _, row in sorted(zip(ids, rows), key=itemgetter(0))]
            rng.shuffle(pool)
            queues[community] = pool
        picked: list[tuple[str, int]] = []
        while len(picked) < per_stratum and any(queues.values()):
            for community in sorted(queues):
                if queues[community] and len(picked) < per_stratum:
                    picked.append((community, queues[community].pop()))
        sampled.extend(
            (cluster, topic, community, row) for community, row in picked
        )
    return sampled
