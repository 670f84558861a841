"""Sentinel account selection and activity accounting.

Sentinels are the most-retweeted accounts of each large community; they are
followed longitudinally as a proxy for their community's content. Activity
handles account attrition: an account counts as active on a day if any
tweet from it is observed on or after that day, so one number per account,
the last day it was seen, says on which window days it is active.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from datetime import date
from pathlib import Path

import numpy as np

from .community import Label, Partition
from .errors import ParameterError
from .fileio import read_records, write_lines
from .graph import RetweetGraph
from .ingest import Corpus, day_number

LanguageFilter = Callable[[Label, frozenset[str]], bool]
# considered community label -> its (account, in-degree) entries
Roster = dict[Label, tuple[tuple[str, int], ...]]
# tweets per community that the ascii language filter inspects
LANGUAGE_SAMPLE_SIZE = 100


def select_sentinels(
    graph: RetweetGraph,
    partition: Partition,
    k: int = 15,
    top_m: int = 50,
    language_filter: LanguageFilter | None = None,
) -> Roster:
    """Pick the k most-retweeted accounts from each qualifying community.

    Only the top_m largest communities are considered, optionally filtered
    by ``language_filter``, and the roster lists them in that order.
    In-degree ties break by ascending account id.
    """
    if k <= 0 or top_m <= 0:
        raise ParameterError("k and top_m must be positive")
    by_size = sorted(
        partition.communities.items(), key=lambda item: (-len(item[1]), str(item[0]))
    )
    members: Roster = {}
    for label, community in by_size[:top_m]:
        if language_filter is not None and not language_filter(label, community):
            continue
        ranked = sorted(
            community, key=lambda node: (-graph.w_in.get(node, 0), node)
        )
        members[label] = tuple((node, graph.w_in.get(node, 0)) for node in ranked[:k])
    return members


def coverage(graph: RetweetGraph, partition: Partition, roster: Roster) -> dict[Label, float]:
    """Each roster community's selected share of its total in-degree in ``graph``.

    A community whose members were never retweeted has nothing to cover: 1.0.
    """
    shares = {}
    for label, entries in roster.items():
        total = sum(graph.w_in.get(node, 0) for node in partition.communities[label])
        shares[label] = sum(weight for _, weight in entries) / total if total else 1.0
    return shares


def ascii_language_filter(
    corpus: Corpus,
    english_threshold: float = 0.8,
    seed: int = 0,
) -> LanguageFilter:
    """Crude stand-in for a language-detection service.

    Samples up to :data:`LANGUAGE_SAMPLE_SIZE` of the community's tweets in
    ``corpus`` and passes it when at least ``english_threshold`` of them
    are mostly ASCII text. The sample is drawn from the tweets of the
    community's accounts in id order, each account's in corpus order. Meant
    to be replaced by a real classifier through the same predicate
    interface.
    """
    # the rows of each account, in corpus order: by_author[starts[a]:starts[a + 1]]
    by_author = np.argsort(corpus.author, kind="stable")
    starts = np.concatenate(
        [[0], np.cumsum(np.bincount(corpus.author, minlength=len(corpus.accounts)))]
    ).tolist()
    index = corpus.account_index

    def tweet_is_asciiish(text: str) -> bool:
        compact = "".join(text.split())
        if not compact:
            return False
        # encoding drops every non-ASCII character, lone surrogates included
        return len(compact.encode("ascii", "ignore")) / len(compact) >= 0.9

    def predicate(label: Label, community: frozenset[str]) -> bool:
        authors = [index[account] for account in sorted(community) if account in index]
        rows = np.concatenate(
            [by_author[starts[author] : starts[author + 1]] for author in authors]
            or [by_author[:0]]
        )
        if not rows.size:
            return False
        # str seeding hashes with sha512, so sampling is stable across processes;
        # sampling positions picks what sampling the texts would
        rng = random.Random(f"{seed}:{label}")
        if rows.size > LANGUAGE_SAMPLE_SIZE:
            rows = rows[rng.sample(range(rows.size), LANGUAGE_SAMPLE_SIZE)]
        passing = sum(map(tweet_is_asciiish, corpus.texts.take(rows)))
        return passing / rows.size >= english_threshold

    return predicate


def activity(
    corpus: Corpus,
    accounts: Sequence[str],
    window: tuple[date, date],
) -> np.ndarray:
    """Each account's last active day in a [start_day, end_day] window (inclusive).

    One int64 entry per entry of ``accounts``: the day of the account's
    latest tweet in ``corpus``, as its offset from ``start_day`` and capped
    at the window's last day, or -1 when the account has no tweet on or
    after ``start_day``. The account is active on every window day up to
    that one, so it has ``entry + 1`` active days.
    """
    start, end = window
    if start > end:
        raise ParameterError(f"empty window: {start} > {end}")
    # one slot past the account table stays -1, for accounts outside it
    latest = np.full(len(corpus.accounts) + 1, -1, dtype=np.int64)
    np.maximum.at(latest, corpus.author, corpus.days - day_number(start))
    index = corpus.account_index
    authors = np.array([index.get(account, -1) for account in accounts], dtype=np.intp)
    return np.minimum(latest[authors], (end - start).days)


def write_roster(sentinels: Roster, path: str | Path) -> None:
    """Write 'community_label account_id in_degree' lines."""
    entries = ((label, *entry) for label, roster in sentinels.items() for entry in roster)
    write_lines(path, (f"{label} {account} {in_degree}" for label, account, in_degree in entries))


def read_roster(path: str | Path) -> Roster:
    """Rosters from :func:`write_roster`'s lines; an account listed twice is a ValueError."""
    rosters: dict[Label, list[tuple[str, int]]] = {}
    seen: set[str] = set()
    for label, account, in_degree in read_records(path):
        if account in seen:
            raise ValueError(f"account {account!r} listed twice")
        seen.add(account)
        rosters.setdefault(label, []).append((account, int(in_degree)))
    return {label: tuple(entries) for label, entries in rosters.items()}
