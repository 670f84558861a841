"""Substring-lexicon topic filters and per-capita tweet rate tables.

Topic membership is plain case-insensitive substring containment against the
raw tweet text, since several lexicon phrases carry punctuation that
tokenization would destroy. Subtopics filter their parent topic's matches,
so a subtopic count can never exceed its parent's.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .community import Label
from .errors import ParameterError
from .fileio import atomic_open
from .ingest import TweetRecord, data_path
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


def load_lexicon(path: str | Path, name: str, parent: str | None = None) -> TopicLexicon:
    """Read a lexicon file: one substring per line, '#' comments allowed."""
    substrings = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                substrings.append(line.lower())
    return TopicLexicon(name=name, substrings=tuple(substrings), parent=parent)


def load_lexicons(directory: str | Path | None = None) -> dict[str, TopicLexicon]:
    """Load the default topic tree, from a directory or the packaged data.

    A directory override must contain the same file names as the packaged
    tree; parent relationships are fixed by :data:`DEFAULT_TOPIC_TREE`.
    """
    base = Path(directory) if directory is not None else data_path("lexicons")
    lexicons = {}
    for name, (filename, parent) in DEFAULT_TOPIC_TREE.items():
        lexicons[name] = load_lexicon(base / filename, name, parent)
    _check_acyclic(lexicons)
    return lexicons


def _check_acyclic(lexicons: Mapping[str, TopicLexicon]) -> None:
    for name in lexicons:
        seen = set()
        cursor: str | None = name
        while cursor is not None:
            if cursor in seen:
                raise ParameterError(f"lexicon parent cycle at {cursor!r}")
            seen.add(cursor)
            cursor = lexicons[cursor].parent if cursor in lexicons else None


def _contains_any(lowered: str, lexicon: TopicLexicon) -> bool:
    return any(needle in lowered for needle in lexicon.substrings)


def matches_topic(text: str, lexicon: TopicLexicon) -> bool:
    return _contains_any(text.lower(), lexicon)


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
    text is lowercased once, not once per lexicon; the result equals the
    chain of :func:`filter_topic` calls.
    """
    matched: dict[str, list[tuple[TweetRecord, str]]] = {}
    lowered = [(record, record.text.lower()) for record in records]
    remaining = dict(lexicons)
    while remaining:
        progressed = False
        for name in sorted(remaining):
            lexicon = remaining[name]
            if lexicon.parent is None:
                pool = lowered
            elif lexicon.parent in matched:
                pool = matched[lexicon.parent]
            else:
                continue
            matched[name] = [(r, text) for r, text in pool if _contains_any(text, lexicon)]
            del remaining[name]
            progressed = True
        if not progressed:
            raise ParameterError(
                f"unresolvable lexicon parents: {sorted(remaining)}"
            )
    return {name: [record for record, _ in pairs] for name, pairs in matched.items()}


@dataclass(frozen=True)
class RateRow:
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
    with atomic_open(path) as handle:
        handle.write("topic,community,count\n")
        for topic in topics:
            for community in sorted(matched, key=str):
                handle.write(f"{topic},{community},{len(matched[community][topic])}\n")


def write_rates_csv(table: RateTable, path: str | Path) -> None:
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            [
                "topic",
                "community",
                "count",
                "active_account_days",
                "per_capita",
                "sum_scaled",
                "max_scaled",
            ]
        )
        for row in table.rows:
            writer.writerow(
                [
                    row.topic,
                    row.community,
                    row.count,
                    row.active_account_days,
                    repr(row.per_capita),
                    "" if row.sum_scaled is None else repr(row.sum_scaled),
                    "" if row.max_scaled is None else repr(row.max_scaled),
                ]
            )


def write_daily_csv(table: RateTable, path: str | Path) -> None:
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["topic", "cluster", "day", "tweets_per_15_active"])
        for (topic, cluster), series in sorted(
            table.daily.items(), key=lambda item: (item[0][0], str(item[0][1]))
        ):
            for day, rate in series:
                writer.writerow(
                    [
                        topic,
                        cluster,
                        day.isoformat(),
                        "" if rate is None else repr(rate),
                    ]
                )
