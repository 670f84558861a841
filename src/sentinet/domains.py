"""Community characterization by linked-domain preference.

Each community gets a row of link fractions over qualifying domains, a
scalar score from the first principal component of that matrix, and a
cluster assignment from merging adjacent groups of the sorted scores.
:func:`domain_frequency_matrix` reads each URL's host once and decides
each distinct host's domain once per call, however many URLs link it.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .community import Label
from .errors import (
    DegenerateClusteringError,
    ParameterError,
    UrlParseError,
    ZeroVarianceError,
)
from .fileio import read_csv, write_csv
from .ingest import Corpus, host_domain, url_host


class DomainMatrix(NamedTuple):
    """Community x domain matrix of link fractions.

    Columns are the domains linked more than ``min_count`` times by at least
    one community; each entry divides by the community's total retained
    links, so rows sum to at most 1.
    """

    communities: tuple[Label, ...]
    domains: tuple[str, ...]
    values: np.ndarray
    retained_totals: tuple[int, ...]
    unparseable_urls: int

    @property
    def zero_link_communities(self) -> tuple[Label, ...]:
        return tuple(c for c, total in zip(self.communities, self.retained_totals) if not total)


class LinkedDomainScore(NamedTuple):
    """First-principal-axis loadings over domains and per-community scores."""

    domains: tuple[str, ...]
    loadings: np.ndarray
    scores: Mapping[Label, float]


def domain_frequency_matrix(
    corpus: Corpus,
    rows_by_community: Mapping[Label, Sequence[int]],
    shorteners: frozenset[str] = frozenset(),
    min_count: int = 10,
) -> DomainMatrix:
    """Count the domains each community's rows of ``corpus`` link into a link-fraction matrix.

    Twitter links, shortener links and unparseable URLs are dropped before
    counting. A domain becomes a column when some single community linked
    it strictly more than ``min_count`` times.

    Each URL is reduced to its host (:func:`~sentinet.ingest.url_host`),
    and each distinct host is reduced to its domain
    (:func:`~sentinet.ingest.host_domain`) once per call: a corpus links a
    few hosts many times.
    """
    if min_count < 1:
        raise ParameterError("min_count must be a positive integer")
    communities = sorted(rows_by_community, key=str)
    counts: dict[Label, Counter] = {}
    # host -> its domain: None when excluded, "" when it names no registrable host
    domain_of: dict[str, str | None] = {}
    unparseable = 0
    for label in communities:
        hosts = []
        for url in corpus.urls_of(rows_by_community[label]):
            try:
                hosts.append(url_host(url))
            except UrlParseError:
                unparseable += 1
        counter: Counter = Counter()
        for host, links in Counter(hosts).items():
            if host not in domain_of:
                try:
                    domain_of[host] = host_domain(host, shorteners)
                except UrlParseError:
                    domain_of[host] = ""
            domain = domain_of[host]
            if domain == "":
                unparseable += links
            elif domain is not None:
                counter[domain] += links
        counts[label] = counter
    qualifying = sorted(
        {
            domain
            for counter in counts.values()
            for domain, count in counter.items()
            if count > min_count
        }
    )
    totals = [sum(counts[label].values()) for label in communities]
    values = np.zeros((len(communities), len(qualifying)))
    for i, label in enumerate(communities):
        if totals[i] == 0:
            continue
        for j, domain in enumerate(qualifying):
            values[i, j] = counts[label][domain] / totals[i]
    return DomainMatrix(
        communities=tuple(communities),
        domains=tuple(qualifying),
        values=values,
        retained_totals=tuple(totals),
        unparseable_urls=unparseable,
    )


def first_principal_component(
    matrix: DomainMatrix, anchor_domain: str | None = None
) -> LinkedDomainScore:
    """Project communities onto the leading axis of the centered matrix.

    Columns are mean-centered without variance scaling, so heavily linked
    domains keep their influence. The loading vector is the first right
    singular vector; by default its largest-magnitude entry is made
    positive, or ``anchor_domain``'s loading is forced positive instead.
    """
    if len(matrix.communities) < 2 or len(matrix.domains) < 1:
        raise ParameterError("need at least 2 communities and 1 domain")
    centered = matrix.values - matrix.values.mean(axis=0)
    if not np.any(np.abs(centered) > 1e-15):
        raise ZeroVarianceError("all communities share identical link fractions")
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    loadings = vt[0]
    if anchor_domain is not None:
        if anchor_domain not in matrix.domains:
            raise ParameterError(f"anchor domain {anchor_domain!r} not in matrix")
        anchor_value = loadings[matrix.domains.index(anchor_domain)]
        if anchor_value == 0:
            raise ParameterError(
                f"anchor domain {anchor_domain!r} has zero loading; cannot orient"
            )
        if anchor_value < 0:
            loadings = -loadings
    elif loadings[int(np.argmax(np.abs(loadings)))] < 0:
        loadings = -loadings
    projected = centered @ loadings
    scores = {
        label: float(projected[i]) for i, label in enumerate(matrix.communities)
    }
    return LinkedDomainScore(
        domains=matrix.domains,
        loadings=loadings,
        scores=scores,
    )


def cluster_scores(scores: Mapping[Label, float], k: int = 3) -> dict[Label, int]:
    """Cut the 1-D scores into k contiguous clusters by greedy merging.

    Starting from one group per score in ascending order, the two adjacent
    groups whose means are closest merge until k groups remain; on equal
    gaps the leftmost pair merges first. In one dimension clusters stay
    intervals and both centroid and average linkage reduce to this gap, so
    this is their agglomeration. Returns community -> cluster 0..k-1, in
    ascending order of centroid: cluster 0 holds the most negative scores.
    """
    if k < 1:
        raise ParameterError("cluster count must be positive")
    if len(scores) < k:
        raise ParameterError(f"cannot form {k} clusters from {len(scores)} communities")
    if len(set(scores.values())) < k:
        raise DegenerateClusteringError(
            f"need at least {k} distinct scores to form {k} clusters"
        )
    groups = [[label] for label in sorted(scores, key=scores.__getitem__)]
    means = [_mean(scores, group) for group in groups]
    while len(groups) > k:
        gaps = [right - left for left, right in zip(means, means[1:])]
        i = gaps.index(min(gaps))
        groups[i : i + 2] = [groups[i] + groups[i + 1]]
        means[i : i + 2] = [_mean(scores, groups[i])]
    return {label: c for c, group in enumerate(groups) for label in group}


def cluster_members(clusters: Mapping[Label, int]) -> dict[str, list[Label]]:
    """Cluster name (its number as text) -> its communities, sorted."""
    members: dict[str, list[Label]] = {}
    for community, cluster in clusters.items():
        members.setdefault(str(cluster), []).append(community)
    return {cluster: sorted(communities, key=str) for cluster, communities in members.items()}


def centroids(scores: Mapping[Label, float], clusters: Mapping[Label, int]) -> tuple[float, ...]:
    """Each cluster's mean score, cluster 0 first."""
    members = cluster_members(clusters)
    return tuple(_mean(scores, members[str(c)]) for c in range(len(members)))


def _mean(scores: Mapping[Label, float], labels: Sequence[Label]) -> float:
    # fsum rounds once, so a mean does not depend on the order of its labels
    return math.fsum(scores[label] for label in labels) / len(labels)


def write_matrix_csv(matrix: DomainMatrix, path: str | Path) -> None:
    write_csv(
        path,
        ["community", "retained_links", *matrix.domains],
        (
            [label, total, *row]
            for label, total, row in zip(
                matrix.communities, matrix.retained_totals, matrix.values.tolist()
            )
        ),
    )


def read_matrix_csv(source: str | Path) -> DomainMatrix:
    header, *rows = read_csv(source)
    domains = tuple(header[2:])
    communities = tuple(row[0] for row in rows)
    totals = tuple(int(row[1]) for row in rows)
    values = [[float(v) for v in row[2:]] for row in rows]
    return DomainMatrix(
        communities=communities,
        domains=domains,
        values=np.array(values) if values else np.zeros((0, len(domains))),
        retained_totals=totals,
        unparseable_urls=0,
    )


def write_scores_csv(
    scores: LinkedDomainScore, clusters: Mapping[Label, int], path: str | Path
) -> None:
    write_csv(
        path,
        ["community", "score", "cluster"],
        (
            [label, scores.scores[label], clusters[label]]
            for label in sorted(scores.scores, key=str)
        ),
    )


def read_scores_csv(path: str | Path) -> tuple[dict[str, float], dict[str, int]]:
    """Community -> score and community -> cluster, from :func:`write_scores_csv`."""
    _, *rows = read_csv(path)
    scores = {community: float(score) for community, score, _ in rows}
    clusters = {community: int(cluster) for community, _, cluster in rows}
    return scores, clusters


def write_loadings_csv(scores: LinkedDomainScore, path: str | Path) -> None:
    loadings = scores.loadings.tolist()
    order = np.argsort(-scores.loadings, kind="stable").tolist()
    write_csv(path, ["domain", "loading"], ([scores.domains[j], loadings[j]] for j in order))
