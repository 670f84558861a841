"""Sentinel account selection and activity accounting.

Sentinels are the most-retweeted accounts of each large community; they are
followed longitudinally as a proxy for their community's content. Activity
bookkeeping handles account attrition: an account counts as active on a day
if any tweet from it is observed on or after that day.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

from .community import Label, Partition
from .errors import ParameterError
from .fileio import atomic_open
from .graph import RetweetGraph
from .ingest import TweetRecord

LanguageFilter = Callable[[Label, frozenset[str]], bool]
# tweets per community that the ascii language filter inspects
LANGUAGE_SAMPLE_SIZE = 100


@dataclass(frozen=True)
class SentinelSet(Mapping):
    """Per-community sentinel rosters ordered by weighted in-degree.

    As a mapping it reads like :func:`read_roster`'s result: considered
    community label -> (account, in-degree) entries.
    """

    members: Mapping[Label, tuple[tuple[str, int], ...]]
    coverage: Mapping[Label, float]
    considered: tuple[Label, ...]

    def __getitem__(self, label: Label) -> tuple[tuple[str, int], ...]:
        return self.members[label]

    def __iter__(self):
        return iter(self.considered)

    def __len__(self) -> int:
        return len(self.considered)


def select_sentinels(
    graph: RetweetGraph,
    partition: Partition,
    k: int = 15,
    top_m: int = 50,
    language_filter: LanguageFilter | None = None,
) -> SentinelSet:
    """Pick the k most-retweeted accounts from each qualifying community.

    Only the top_m largest communities are considered, optionally filtered
    by ``language_filter``. In-degree ties break by ascending account id.
    Coverage is the selected share of the community's total in-degree.
    """
    if k <= 0 or top_m <= 0:
        raise ParameterError("k and top_m must be positive")
    by_size = sorted(
        partition.communities.items(), key=lambda item: (-len(item[1]), str(item[0]))
    )
    considered = []
    members: dict[Label, tuple[tuple[str, int], ...]] = {}
    coverage: dict[Label, float] = {}
    for label, community in by_size[:top_m]:
        if language_filter is not None and not language_filter(label, community):
            continue
        considered.append(label)
        ranked = sorted(
            community, key=lambda node: (-graph.w_in.get(node, 0), node)
        )
        selected = [(node, graph.w_in.get(node, 0)) for node in ranked[:k]]
        community_total = sum(graph.w_in.get(node, 0) for node in community)
        selected_total = sum(weight for _, weight in selected)
        members[label] = tuple(selected)
        # A community whose members were never retweeted has nothing to cover.
        coverage[label] = selected_total / community_total if community_total else 1.0
    return SentinelSet(members=members, coverage=coverage, considered=tuple(considered))


def ascii_language_filter(
    records_by_author: Mapping[str, Sequence[TweetRecord]],
    english_threshold: float = 0.8,
    seed: int = 0,
) -> LanguageFilter:
    """Crude stand-in for a language-detection service.

    Samples up to :data:`LANGUAGE_SAMPLE_SIZE` tweets from the community and
    passes it when at least ``english_threshold`` of them are mostly ASCII
    text. Meant to be replaced by a real classifier through the same
    predicate interface.
    """

    def tweet_is_asciiish(text: str) -> bool:
        compact = "".join(text.split())
        if not compact:
            return False
        # encoding drops every non-ASCII character, lone surrogates included
        return len(compact.encode("ascii", "ignore")) / len(compact) >= 0.9

    def predicate(label: Label, community: frozenset[str]) -> bool:
        texts = [
            record.text
            for author in sorted(community)
            for record in records_by_author.get(author, ())
        ]
        if not texts:
            return False
        # str seeding hashes with sha512, so sampling is stable across processes
        rng = random.Random(f"{seed}:{label}")
        if len(texts) > LANGUAGE_SAMPLE_SIZE:
            texts = rng.sample(texts, LANGUAGE_SAMPLE_SIZE)
        passing = sum(1 for text in texts if tweet_is_asciiish(text))
        return passing / len(texts) >= english_threshold

    return predicate


@dataclass(frozen=True)
class ActivityLedger:
    """Last-observed tweet dates and derived active-day counts over a window."""

    days: tuple[date, ...]
    last_seen: Mapping[str, date]
    active_days: Mapping[str, int]

    def account_days(self, accounts: Iterable[str]) -> int:
        return sum(self.active_days.get(account, 0) for account in accounts)

    def daily_active(self, accounts: Collection[str]) -> tuple[int, ...]:
        """Per window day, how many entries of ``accounts`` are active on it."""
        # an account is active on each day up to its last-seen date
        seen = sorted(self.last_seen[account] for account in accounts if account in self.last_seen)
        return tuple(len(seen) - bisect_left(seen, day) for day in self.days)


def activity(
    records_by_account: Mapping[str, Sequence[TweetRecord]],
    window: tuple[date, date],
) -> ActivityLedger:
    """Build the activity ledger for a [start_day, end_day] window (inclusive)."""
    start, end = window
    if start > end:
        raise ParameterError(f"empty window: {start} > {end}")
    days = tuple(
        start + timedelta(days=offset) for offset in range((end - start).days + 1)
    )
    last_seen: dict[str, date] = {}
    for account, records in records_by_account.items():
        if records:
            last_seen[account] = max(record.day for record in records)
    active_days = {}
    for account, seen in last_seen.items():
        if seen < start:
            active_days[account] = 0
        else:
            active_days[account] = (min(seen, end) - start).days + 1
    return ActivityLedger(days=days, last_seen=last_seen, active_days=active_days)


def write_roster(sentinels: SentinelSet, path: str | Path) -> None:
    """Write 'community_label account_id in_degree' lines."""
    with atomic_open(path) as handle:
        for label in sentinels.considered:
            for account, in_degree in sentinels.members[label]:
                handle.write(f"{label} {account} {in_degree}\n")


def read_roster(path: str | Path) -> dict[Label, tuple[tuple[str, int], ...]]:
    rosters: dict[Label, list[tuple[str, int]]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        label, account, in_degree = line.split()
        rosters.setdefault(label, []).append((account, int(in_degree)))
    return {label: tuple(entries) for label, entries in rosters.items()}
