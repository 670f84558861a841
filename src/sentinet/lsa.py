"""Topical-tweet extraction for flagged days via latent semantic analysis.

A flagged day's tweets form a tweet x trigram count matrix. The document
singular vectors with the largest singular values concentrate on tweet
groups that share phrasing (retweet storms, near-duplicates). Tweets sit
above the sharpest magnitude drop of a document vector are selected as
topical; tweets common to both flagged clusters are removed and the burst
score recomputed to confirm they drove the day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

from .community import Label
from .ingest import TokenDoc
from .similarity import (
    SimilaritySeries,
    SD_FLOOR,
    _history_stats,
    burst_score,
    doc_from_tweets,
    intercluster_similarity,
)

GAP_WINDOW = 50
MIN_GAP_RATIO = 2.0
_DENSE_CUTOFF = 400


@dataclass(frozen=True)
class TopicalExtraction:
    """Tweets selected per document singular vector, and their union."""

    day: date | None
    cluster: Label | None
    singular_values: tuple[float, ...]
    per_vector: tuple[frozenset[str], ...]
    topical_ids: frozenset[str]


@dataclass(frozen=True)
class DriverConfirmation:
    is_driver: bool
    recomputed_h: float | None
    recomputed_s: float | None
    common_a: frozenset[str]
    common_b: frozenset[str]


def truncated_svd(
    matrix: sp.spmatrix, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k singular triplets, singular values non-increasing."""
    rows, cols = matrix.shape
    k = min(k, rows, cols)
    if min(rows, cols) <= _DENSE_CUTOFF or k >= min(rows, cols) - 1:
        u, s, vt = np.linalg.svd(matrix.toarray(), full_matrices=False)
        return u[:, :k], s[:k], vt[:k]
    # ARPACK draws a random start vector unless given one; a fixed one makes
    # the sparse path reproducible across calls and processes
    v0 = np.random.default_rng(0).standard_normal(min(rows, cols))
    u, s, vt = svds(matrix.asfptype(), k=k, v0=v0)
    order = np.argsort(-s, kind="stable")
    return u[:, order], s[order], vt[order]


def _gap_select(magnitudes: np.ndarray) -> int:
    """Count of leading entries above the sharpest drop, 0 when no sharp drop.

    ``magnitudes`` must be sorted descending. A single entry counts as its
    own plateau and is always selected. The drop is the largest ratio
    between consecutive magnitudes within the leading window; it must reach
    MIN_GAP_RATIO for anything to be selected.
    """
    window = magnitudes[: min(GAP_WINDOW, magnitudes.size)]
    if window.size == 0 or window[0] <= 0:
        return 0
    if window.size == 1:
        return 1
    best_ratio = 0.0
    best_index = -1
    for i in range(window.size - 1):
        upper, lower = float(window[i]), float(window[i + 1])
        if upper <= 0:
            break
        ratio = math.inf if lower == 0.0 else upper / lower
        if ratio > best_ratio:
            best_ratio = ratio
            best_index = i
    if best_index < 0 or best_ratio < MIN_GAP_RATIO:
        return 0
    return best_index + 1


def lsa_topical_tweets(
    tweet_docs: Sequence[tuple[str, TokenDoc]],
    k: int = 5,
    day: date | None = None,
    cluster: Label | None = None,
) -> TopicalExtraction:
    """Select topical tweets from the top-k document singular vectors.

    Tweets with no trigrams are ignored. Per vector, component magnitudes
    are sorted descending and the tweets above the largest consecutive-ratio
    gap are selected; the topical set is the union over vectors.
    """
    ids = [tweet_id for tweet_id, doc in tweet_docs if doc.trigram_counts]
    docs = [doc for _, doc in tweet_docs if doc.trigram_counts]
    if not docs:
        return TopicalExtraction(
            day=day,
            cluster=cluster,
            singular_values=(),
            per_vector=(),
            topical_ids=frozenset(),
        )
    vocabulary = sorted({tri for doc in docs for tri in doc.trigram_counts})
    column_of = {tri: j for j, tri in enumerate(vocabulary)}
    columns = [column_of[tri] for doc in docs for tri in doc.trigram_counts]
    counts = [count for doc in docs for count in doc.trigram_counts.values()]
    indptr = np.cumsum([0] + [len(doc.trigram_counts) for doc in docs])
    matrix = sp.csr_matrix(
        (np.asarray(counts, dtype=float), columns, indptr),
        shape=(len(docs), len(vocabulary)),
    )
    # column order within rows fixes the summation order of the sparse SVD's products
    matrix.sort_indices()
    u, s, _ = truncated_svd(matrix, k)
    per_vector: list[frozenset[str]] = []
    for j in range(s.size):
        magnitudes = np.abs(u[:, j])
        order = np.argsort(-magnitudes, kind="stable")
        keep = _gap_select(magnitudes[order])
        per_vector.append(frozenset(ids[int(i)] for i in order[:keep]))
    topical = frozenset().union(*per_vector) if per_vector else frozenset()
    return TopicalExtraction(
        day=day,
        cluster=cluster,
        singular_values=tuple(float(x) for x in s),
        per_vector=tuple(per_vector),
        topical_ids=topical,
    )


def trigram_jaccard(doc_a: TokenDoc, doc_b: TokenDoc) -> float:
    """Jaccard similarity of the two tweets' trigram key sets."""
    set_a = set(doc_a.trigram_counts)
    set_b = set(doc_b.trigram_counts)
    if not set_a and not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def confirm_drivers(
    series: SimilaritySeries,
    day: date,
    tweets_a: Mapping[Label, Sequence[tuple[str, TokenDoc]]],
    tweets_b: Mapping[Label, Sequence[tuple[str, TokenDoc]]],
    extraction_a: TopicalExtraction,
    extraction_b: TopicalExtraction,
    match_threshold: float = 0.5,
    flag_threshold: float = 2.0,
    min_history: int = 7,
) -> DriverConfirmation:
    """Remove cross-cluster common topical tweets and recompute the burst.

    Topical tweets from the two clusters count as common when their trigram
    sets reach ``match_threshold`` Jaccard similarity (retweets match
    exactly, near-duplicates partially). The removed day's similarity and
    burst score are recomputed against the unchanged history; the tweets
    are confirmed drivers when the recomputed score falls below the flag
    threshold (or the day loses all valid similarity).
    """
    index = series.index_of(day)
    docs_of_a = {tid: doc for tweets in tweets_a.values() for tid, doc in tweets}
    docs_of_b = {tid: doc for tweets in tweets_b.values() for tid, doc in tweets}
    topical_a = [tid for tid in sorted(extraction_a.topical_ids) if tid in docs_of_a]
    topical_b = [tid for tid in sorted(extraction_b.topical_ids) if tid in docs_of_b]
    common_a: set[str] = set()
    common_b: set[str] = set()
    for tid_a in topical_a:
        for tid_b in topical_b:
            if trigram_jaccard(docs_of_a[tid_a], docs_of_b[tid_b]) >= match_threshold:
                common_a.add(tid_a)
                common_b.add(tid_b)
    original_h = burst_score(series, index, min_history)
    if not common_a or not common_b:
        return DriverConfirmation(
            is_driver=False,
            recomputed_h=original_h,
            recomputed_s=series.values[index],
            common_a=frozenset(),
            common_b=frozenset(),
        )
    reduced_a = _reduced_docs(tweets_a, common_a, day)
    reduced_b = _reduced_docs(tweets_b, common_b, day)
    new_s = intercluster_similarity(reduced_a, reduced_b)
    count, mean, sd = _history_stats(series.values, index)
    if new_s is None or count < min_history or sd <= SD_FLOOR:
        new_h = None
    else:
        new_h = (new_s - mean) / sd
    is_driver = new_h is None or new_h < flag_threshold
    return DriverConfirmation(
        is_driver=is_driver,
        recomputed_h=new_h,
        recomputed_s=new_s,
        common_a=frozenset(common_a),
        common_b=frozenset(common_b),
    )


def _reduced_docs(
    tweets_by_community: Mapping[Label, Sequence[tuple[str, TokenDoc]]],
    removed: set[str],
    day: date,
):
    docs = []
    for community in sorted(tweets_by_community, key=str):
        kept = [
            (tid, doc)
            for tid, doc in tweets_by_community[community]
            if tid not in removed
        ]
        docs.append(doc_from_tweets(community, day, kept))
    return docs
