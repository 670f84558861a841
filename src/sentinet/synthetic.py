"""Deterministic synthetic corpus generator for pipeline exercises.

Builds a small retweet ecosystem: communities with hub accounts that every
member retweets daily, cluster-specific linked domains and phrasing, a
light mist of globally shared phrases that keeps inter-cluster similarity
positive but small, and one viral message copied verbatim across two
clusters on a chosen day. Useful for demos and end-to-end verification.

Each tweet is built as its JSON object, and the corpus is parsed from their
JSON lines by :func:`~sentinet.ingest.parse_tweet_stream`, so generated
tweets pass the same checks as real input.
"""

from __future__ import annotations

import json
import random
from datetime import date, datetime, time, timedelta, timezone
from typing import NamedTuple

from .ingest import Corpus, format_timestamp, parse_tweet_stream

GLOBAL_PHRASES = (
    "confirmed cases rising in several states today",
    "health officials urge caution heading into weekend",
    "hospital systems report steady admissions this week",
    "testing sites expand hours across the country",
    "researchers publish new findings on transmission timing",
    "schools weigh reopening plans for the fall",
    "travel guidance updated for returning passengers",
    "local leaders discuss relief funding next month",
    "scientists track variants emerging in other regions",
    "case counts dip slightly after holiday backlog",
)

CLUSTER_PHRASES = (
    (
        "new vaccine trial results encouraging scientists say",
        "volunteers needed for the coming vaccine study",
        "community clinics prepare distribution logistics carefully",
        "public health messaging must reach every neighborhood",
        "experts praise transparent reporting from state agencies",
        "relief package supports frontline workers and families",
        "contact tracing teams grow in three counties",
        "models suggest masks cut transmission substantially indoors",
    ),
    (
        "experts debate mask mandates in schools again",
        "business owners balance safety and staying open",
        "county boards argue over enforcement details tonight",
        "pundits split on timing of reopening phases",
        "analysts question the latest unemployment projections",
        "moderates call for compromise on relief spending",
        "columnists weigh tradeoffs of remote learning",
        "panel discusses liability rules for employers",
    ),
    (
        "pundits say covid death rate lower than flu",
        "skeptics question lockdown costs versus benefits loudly",
        "commentators blast media coverage of case numbers",
        "callers doubt official counts on radio shows",
        "hosts claim restrictions ignore economic damage entirely",
        "guests argue natural immunity gets dismissed unfairly",
        "viewers told to question every published model",
        "broadcasters mock latest guidance reversal from agencies",
    ),
)

CLUSTER_DOMAINS = (
    ("bluepress.com", "leftledger.com", "civicdaily.com"),
    ("middlemark.com", "plainwire.com", "centrepost.com"),
    ("redledger.com", "rightreport.com", "crimsonwire.com"),
)
SHARED_DOMAINS = ("wireservice.com", "newsnet.com")

# row c = cluster c's sampling weights over (left pool, middle pool,
# right pool, shared pool); middle mixes the extremes so the domain space
# is close to one-dimensional
DOMAIN_MIX = (
    (0.70, 0.10, 0.00, 0.20),
    (0.25, 0.30, 0.25, 0.20),
    (0.00, 0.10, 0.70, 0.20),
)

VIRAL_TEXT = (
    "breaking the cdc quietly revised covid fatality figures downward "
    "overnight shocking reporters nationwide"
)


class SyntheticSpec(NamedTuple):
    n_days: int = 30
    start: date = date(2020, 7, 1)
    communities_per_cluster: int = 3
    hubs_per_community: int = 15
    extra_accounts: int = 3
    viral_day_index: int = 24
    viral_clusters: tuple[int, int] = (1, 2)
    split_day_index: int = 20
    seed: int = 20
    originals_per_account: int = 2
    url_probability: float = 0.45
    global_phrase_probability: float = 0.30


class GroundTruth(NamedTuple):
    communities: tuple[str, ...]
    cluster_of_community: dict[str, int]
    accounts: dict[str, tuple[str, ...]]
    hubs: dict[str, tuple[str, ...]]
    viral_day: date
    viral_tweet_ids: tuple[str, ...]
    window: tuple[date, date]
    split: datetime


def generate_corpus(spec: SyntheticSpec = SyntheticSpec()) -> tuple[Corpus, GroundTruth]:
    rng = random.Random(spec.seed)
    n_clusters = len(CLUSTER_PHRASES)
    communities = tuple(
        f"c{i}" for i in range(n_clusters * spec.communities_per_cluster)
    )
    cluster_of = {
        name: i // spec.communities_per_cluster for i, name in enumerate(communities)
    }
    accounts = {
        name: tuple(
            f"{name}a{j:02d}"
            for j in range(spec.hubs_per_community + spec.extra_accounts)
        )
        for name in communities
    }
    hubs = {
        name: members[: spec.hubs_per_community] for name, members in accounts.items()
    }
    community_fillers = {
        name: tuple(f"{name}topic{t}" for t in range(12)) for name in communities
    }

    tweets: list[dict] = []
    viral_ids: list[str] = []
    serial = 0

    def stamp(day_index: int, minute: int) -> str:
        moment = datetime.combine(
            spec.start + timedelta(days=day_index), time(8, 0), tzinfo=timezone.utc
        )
        return format_timestamp(moment + timedelta(minutes=minute % 600))

    def tweet(tweet_id, author, created_at, text, source=None, urls=()) -> None:
        tweets.append(
            {
                "tweet_id": tweet_id,
                "author_id": author,
                "created_at": created_at,
                "text": text,
                "retweeted_author_id": source,
                "urls": urls,
            }
        )

    def next_id() -> str:
        nonlocal serial
        serial += 1
        return f"t{serial:07d}"

    def compose_text(community: str) -> str:
        cluster = cluster_of[community]
        # one global phrase per tweet (sometimes two) keeps the day-to-day
        # inter-cluster baseline positive and fairly steady
        parts = ["covid"]
        parts.append(rng.choice(CLUSTER_PHRASES[cluster]))
        parts.append(rng.choice(GLOBAL_PHRASES))
        if rng.random() < spec.global_phrase_probability:
            parts.append(rng.choice(GLOBAL_PHRASES))
        parts.append(" ".join(rng.sample(community_fillers[community], 2)))
        return " ".join(parts)

    def maybe_url(community: str) -> tuple[str, ...]:
        if rng.random() >= spec.url_probability:
            return ()
        cluster = cluster_of[community]
        pools = (*CLUSTER_DOMAINS, SHARED_DOMAINS)
        pool = rng.choices(pools, weights=DOMAIN_MIX[cluster], k=1)[0]
        domain = rng.choice(pool)
        return (f"https://{domain}/{next_id()}",)

    for day_index in range(spec.n_days):
        for community in communities:
            for member in accounts[community]:
                minute = rng.randrange(0, 540)
                target = rng.choice([h for h in hubs[community] if h != member])
                tweet(
                    next_id(),
                    member,
                    stamp(day_index, minute),
                    f"rt @{target} {compose_text(community)}",
                    source=target,
                )
                for _ in range(spec.originals_per_account):
                    tweet(
                        next_id(),
                        member,
                        stamp(day_index, minute + rng.randrange(1, 60)),
                        compose_text(community),
                        urls=maybe_url(community),
                    )
        # sparse chain of cross-community retweets keeps the graph connected
        if day_index % 7 == 3:
            for i in range(len(communities) - 1):
                source_hub = hubs[communities[i + 1]][0]
                bridge_author = accounts[communities[i]][-1]
                tweet(
                    next_id(),
                    bridge_author,
                    stamp(day_index, 590),
                    f"rt @{source_hub} {compose_text(communities[i])}",
                    source=source_hub,
                )

    for cluster in spec.viral_clusters:
        for community in communities:
            if cluster_of[community] != cluster:
                continue
            for hub in hubs[community]:
                tweet_id = next_id()
                viral_ids.append(tweet_id)
                tweet(tweet_id, hub, stamp(spec.viral_day_index, 300), VIRAL_TEXT)

    # the fixed-width UTC times sort as the times do
    tweets.sort(key=lambda t: (t["created_at"], t["tweet_id"]))
    truth = GroundTruth(
        communities=communities,
        cluster_of_community=cluster_of,
        accounts=accounts,
        hubs=hubs,
        viral_day=spec.start + timedelta(days=spec.viral_day_index),
        viral_tweet_ids=tuple(viral_ids),
        window=(spec.start, spec.start + timedelta(days=spec.n_days - 1)),
        split=datetime.combine(
            spec.start + timedelta(days=spec.split_day_index),
            time(0, 0),
            tzinfo=timezone.utc,
        ),
    )
    return parse_tweet_stream(map(json.dumps, tweets)).records, truth
