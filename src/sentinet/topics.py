"""Substring-lexicon topic filters and per-capita tweet rate tables.

Topic membership is plain case-insensitive substring containment against the
raw tweet text, since several lexicon phrases carry punctuation that
tokenization would destroy. Subtopics filter their parent topic's matches,
so a subtopic count can never exceed its parent's. Matched tweets feed a
seeded, community-balanced coding sample per cluster and topic.
"""

from __future__ import annotations

import random
from dataclasses import astuple, dataclass, fields
from datetime import date
from itertools import compress
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .community import Label
from .errors import ParameterError
from .fileio import read_lines, write_csv
from .ingest import PACKAGED, TweetRecord
from .sentinel import ActivityLedger


@dataclass(frozen=True)
class TopicLexicon:
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


def matches_topic(text: str, lexicon: TopicLexicon) -> bool:
    lowered = text.lower()
    return any(needle in lowered for needle in lexicon.substrings)


def filter_topic(
    records: Iterable[TweetRecord], lexicon: TopicLexicon
) -> list[TweetRecord]:
    """Records whose raw text contains any lexicon substring (case-insensitive)."""
    return [record for record in records if matches_topic(record.text, lexicon)]


def filter_topic_tree(
    records: Sequence[TweetRecord], lexicons: Mapping[str, TopicLexicon]
) -> dict[str, list[TweetRecord]]:
    """Apply every lexicon in parent-before-child order.

    Each subtopic filters its parent's matches, which keeps the subset
    relationship between topic and subtopic counts by construction. Each
    text is lowercased once, not once per lexicon, and each needle is
    tested across the whole pool in one pass; the result equals the chain
    of :func:`filter_topic` calls.
    """
    # topic -> (matching records, their lowercased texts), in record order
    matched: dict[str, tuple[list[TweetRecord], list[str]]] = {}
    everything = (list(records), [record.text.lower() for record in records])
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
            pool_records, texts = pool
            hits = [False] * len(texts)
            for needle in lexicon.substrings:
                hits = [hit or needle in text for hit, text in zip(hits, texts)]
            matched[name] = (list(compress(pool_records, hits)), list(compress(texts, hits)))
            del remaining[name]
            progressed = True
        if not progressed:
            raise ParameterError(
                f"unresolvable lexicon parents: {sorted(remaining)}"
            )
    return {name: topic_records for name, (topic_records, _) in matched.items()}


@dataclass(frozen=True)
class RateRow:
    """One line of ``rates.csv``; the field names are its header."""

    topic: str
    community: Label
    count: int
    active_account_days: int
    per_capita: float
    sum_scaled: float | None
    max_scaled: float | None


@dataclass(frozen=True)
class RateTable:
    """Per-community topical rates plus per-cluster daily series.

    ``daily`` maps (topic, cluster) to per-day tweets per 15 active
    accounts; a None rate marks a day with no active accounts.
    """

    rows: tuple[RateRow, ...]
    daily: Mapping[tuple[str, Label], tuple[tuple[date, float | None], ...]]
    excluded: tuple[tuple[str, Label], ...]


def rate_table(
    counts: Mapping[str, Mapping[Label, int]],
    ledger: ActivityLedger,
    community_accounts: Mapping[Label, Sequence[str]],
    daily_counts: Mapping[str, Mapping[Label, Mapping[date, int]]] | None = None,
    cluster_accounts: Mapping[Label, Sequence[str]] | None = None,
) -> RateTable:
    """Normalize topical tweet counts by active account days.

    Per-capita rate divides a community's count by its active account days;
    sum-scaling divides by the sum of per-capita rates across communities,
    max-scaling by their maximum. Communities with zero active account days
    are excluded and reported. Daily cluster rates are count * 15 divided by
    that day's active account tally.
    """
    rows: list[RateRow] = []
    excluded: list[tuple[str, Label]] = []
    for topic in sorted(counts):
        offenders = []
        per_capita: dict[Label, float] = {}
        days_of: dict[Label, int] = {}
        for community in sorted(counts[topic], key=str):
            account_days = ledger.account_days(community_accounts.get(community, ()))
            if account_days <= 0:
                offenders.append(community)
                continue
            days_of[community] = account_days
            per_capita[community] = counts[topic][community] / account_days
        excluded.extend((topic, community) for community in offenders)
        rate_sum = sum(per_capita.values())
        rate_max = max(per_capita.values(), default=0.0)
        for community in sorted(per_capita, key=str):
            rate = per_capita[community]
            rows.append(
                RateRow(
                    topic=topic,
                    community=community,
                    count=counts[topic][community],
                    active_account_days=days_of[community],
                    per_capita=rate,
                    sum_scaled=rate / rate_sum if rate_sum > 0 else None,
                    max_scaled=rate / rate_max if rate_max > 0 else None,
                )
            )
    daily: dict[tuple[str, Label], tuple[tuple[date, float | None], ...]] = {}
    if daily_counts is not None:
        if cluster_accounts is None:
            raise ParameterError("daily_counts requires cluster_accounts")
        for topic in sorted(daily_counts):
            for cluster in sorted(daily_counts[topic], key=str):
                active = ledger.daily_active(tuple(cluster_accounts[cluster]))
                by_day = daily_counts[topic][cluster]
                series = []
                for i, day in enumerate(ledger.days):
                    if active[i] > 0:
                        series.append((day, by_day.get(day, 0) * 15 / active[i]))
                    else:
                        series.append((day, None))
                daily[(topic, cluster)] = tuple(series)
    return RateTable(rows=tuple(rows), daily=daily, excluded=tuple(excluded))


def write_counts_csv(
    matched: Mapping[Label, Mapping[str, Sequence[TweetRecord]]], path: str | Path
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
    write_csv(path, [f.name for f in fields(RateRow)], map(astuple, table.rows))


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
    records_by_cluster_topic: Mapping[tuple[str, str], Sequence[tuple[str, TweetRecord]]],
    per_stratum: int = 100,
    seed: int = 0,
) -> list[tuple[str, str, str, TweetRecord]]:
    """Seeded coding sample: up to ``per_stratum`` tweets per cluster-topic.

    Entries are (community, record) pairs; communities inside a stratum are
    balanced round-robin so one prolific community cannot dominate the
    sample. Returns (cluster, topic, community, record) tuples.
    """
    rng = random.Random(seed)
    sampled = []
    for (cluster, topic) in sorted(records_by_cluster_topic):
        entries = records_by_cluster_topic[(cluster, topic)]
        by_community: dict[str, list[TweetRecord]] = {}
        for community, record in entries:
            by_community.setdefault(community, []).append(record)
        queues = {}
        for community in sorted(by_community):
            pool = sorted(by_community[community], key=lambda r: r.tweet_id)
            rng.shuffle(pool)
            queues[community] = pool
        picked: list[tuple[str, TweetRecord]] = []
        while len(picked) < per_stratum and any(queues.values()):
            for community in sorted(queues):
                if queues[community] and len(picked) < per_stratum:
                    picked.append((community, queues[community].pop()))
        sampled.extend(
            (cluster, topic, community, record) for community, record in picked
        )
    return sampled
