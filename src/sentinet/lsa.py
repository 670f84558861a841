"""Topical-tweet extraction for flagged days via latent semantic analysis.

The ``lsa`` stage counts every covid tweet of its flagged days once, as a
row of one tweet x trigram count matrix; extraction and confirmation both
take row indices of it. A cluster-day's rows, with the trigrams they hold
in the column order the encoder gave, form the matrix whose document
singular vectors with the largest singular values concentrate on tweet
groups that share phrasing (retweet storms, near-duplicates). The tweets
above the sharpest magnitude drop of a document vector are selected as
topical; a vector whose singular value is a rounding-level zero selects
none. Tweets common to both flagged clusters are then removed and the
burst score recomputed, on the same rows, to confirm they drove the day.

Only the top-k singular values and document (left) vectors are computed.
A matrix with at most ``_DENSE_CUTOFF`` rows gets them from its row Gram
matrix ``A Aᵀ``, whose entries are exact integer sums in any column order;
a taller one from a dense SVD when it has at most that many columns or k
is at least its smaller side minus one, else from ARPACK. Every path
leaves rounding-level components where a vector is exactly 0, so the gap
rule counts such components as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import svds

from .community import Label
from .similarity import DayDocs, SimilaritySeries, burst_score, similarity_series
# imported by name so that perfbench's tracer, which wraps it at every
# import site, finds it here too
from .similarity import intercluster_similarity  # noqa: F401

GAP_WINDOW = 50
MIN_GAP_RATIO = 2.0
_DENSE_CUTOFF = 400


@dataclass(frozen=True)
class TopicalExtraction:
    """Tweets selected per document singular vector, and their union."""

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


def truncated_svd(matrix: sp.spmatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k singular values, non-increasing, and their left singular vectors."""
    rows, cols = matrix.shape
    k = min(k, rows, cols)
    if rows <= _DENSE_CUTOFF:
        # the squared singular values are the Gram matrix's eigenvalues; a
        # rounding-level negative one is clamped before the root
        gram = (matrix @ matrix.T).toarray()
        values, vectors = eigh(gram, subset_by_index=[rows - k, rows - 1])
        return vectors[:, ::-1], np.sqrt(np.maximum(values[::-1], 0.0))
    if cols <= _DENSE_CUTOFF or k >= min(rows, cols) - 1:
        u, s, _ = np.linalg.svd(matrix.toarray(), full_matrices=False)
        return u[:, :k], s[:k]
    # ARPACK draws a random start vector unless given one; a fixed one makes
    # the sparse path reproducible across calls and processes
    v0 = np.random.default_rng(0).standard_normal(min(rows, cols))
    u, s, _ = svds(matrix, k=k, v0=v0)
    order = np.argsort(-s, kind="stable")
    return u[:, order], s[order]


def _gap_select(magnitudes: np.ndarray) -> int:
    """Count of leading entries above the sharpest drop, 0 when no sharp drop.

    ``magnitudes`` must be sorted descending. A single entry counts as its
    own plateau and is always selected. The drop is the largest ratio
    between consecutive magnitudes within the leading window; it must reach
    MIN_GAP_RATIO for anything to be selected. An entry at or below
    ``first * len(magnitudes) * eps`` is a rounding-level remnant of an
    exact zero and counts as 0: a drop to that level is a drop to zero, and
    a drop from it is no drop.
    """
    window = magnitudes[: min(GAP_WINDOW, magnitudes.size)]
    if window.size == 0 or window[0] <= 0:
        return 0
    if window.size == 1:
        return 1
    rounding = float(window[0]) * magnitudes.size * np.finfo(float).eps
    best_ratio = 0.0
    best_index = -1
    for i in range(window.size - 1):
        upper, lower = float(window[i]), float(window[i + 1])
        if upper <= rounding:
            break
        ratio = math.inf if lower <= rounding else upper / lower
        if ratio > best_ratio:
            best_ratio = ratio
            best_index = i
    if best_index < 0 or best_ratio < MIN_GAP_RATIO:
        return 0
    return best_index + 1


def lsa_topical_tweets(
    counts: sp.csr_matrix, ids: Sequence[str], rows: Sequence[int], k: int = 5
) -> TopicalExtraction:
    """Select topical tweets from the top-k document singular vectors.

    ``counts`` is a tweet x trigram count matrix, row i the tweet ``ids[i]``;
    the extraction reads its ``rows``, in that order, and the trigrams they
    hold, in the matrix's column order. Tweets with no trigram are ignored.
    Per vector, component magnitudes are sorted descending and the tweets
    above the largest consecutive-ratio gap are selected; the topical set is
    the union over vectors. A vector whose singular value is at most
    ``sqrt(rows * eps)`` times the largest spans part of the null space, an
    arbitrary basis of it, and selects nothing.
    """
    rows = [row for row in rows if counts.indptr[row] < counts.indptr[row + 1]]
    if not rows:
        return TopicalExtraction(singular_values=(), per_vector=(), topical_ids=frozenset())
    matrix = counts[rows]
    matrix = matrix[:, np.unique(matrix.indices)]
    u, s = truncated_svd(matrix, k)
    # the Gram path's rounding level for an exact zero singular value
    null_level = s[0] * math.sqrt(len(rows) * np.finfo(float).eps)
    per_vector: list[frozenset[str]] = []
    for j in range(s.size):
        magnitudes = np.abs(u[:, j])
        order = np.argsort(-magnitudes, kind="stable")
        keep = _gap_select(magnitudes[order]) if s[j] > null_level else 0
        per_vector.append(frozenset(ids[rows[i]] for i in order[:keep]))
    topical = frozenset().union(*per_vector) if per_vector else frozenset()
    return TopicalExtraction(
        singular_values=tuple(float(x) for x in s),
        per_vector=tuple(per_vector),
        topical_ids=topical,
    )


def confirm_drivers(
    series: SimilaritySeries,
    day: date,
    counts: sp.csr_matrix,
    ids: Sequence[str],
    rows_a: Mapping[Label, Sequence[int]],
    rows_b: Mapping[Label, Sequence[int]],
    extraction_a: TopicalExtraction,
    extraction_b: TopicalExtraction,
    match_threshold: float = 0.5,
    flag_threshold: float = 2.0,
    min_history: int = 7,
) -> DriverConfirmation:
    """Remove cross-cluster common topical tweets and recompute the burst.

    ``counts`` and ``ids`` are as for :func:`lsa_topical_tweets`;
    ``rows_a`` and ``rows_b`` map each community of the two clusters to the
    rows of its tweets of the day. Topical tweets from the two clusters
    count as common when their trigram sets reach ``match_threshold``
    Jaccard similarity (retweets match exactly, near-duplicates partially).
    The removed day's similarity and burst score are recomputed against the
    unchanged history; the tweets are confirmed drivers when the recomputed
    score falls below the flag threshold (or the day loses all valid
    similarity).

    The Jaccard similarities of all topical pairs come from one product of
    the 0/1 rows, and each community's reduced document is the sum of its
    remaining rows; both are integer sums, so exact.
    :func:`similarity_series` recomputes the day from them.
    """
    index = series.index_of(day)
    # side a's communities, then side b's, each side in label order
    groups = [rows[c] for rows in (rows_a, rows_b) for c in sorted(rows, key=str)]
    event = [row for group in groups for row in group]
    event_ids = [ids[row] for row in event]
    first_b = sum(len(group) for group in groups[: len(rows_a)])
    topical_a = [i for i in range(first_b) if event_ids[i] in extraction_a.topical_ids]
    topical_b = [
        i for i in range(first_b, len(event)) if event_ids[i] in extraction_b.topical_ids
    ]
    if topical_a and topical_b:
        matrix = counts[event]
        present = matrix.sign()
        sizes = np.diff(present.indptr)  # each tweet's distinct trigrams
        shared = (present[topical_a] @ present[topical_b].T).toarray()
        union = np.add.outer(sizes[topical_a], sizes[topical_b]) - shared
        jaccard = np.divide(shared, union, out=np.zeros_like(shared), where=union > 0)
        matches = jaccard >= match_threshold
        common_a = {event_ids[topical_a[i]] for i in np.flatnonzero(matches.any(axis=1))}
        common_b = {event_ids[topical_b[j]] for j in np.flatnonzero(matches.any(axis=0))}
    else:
        common_a = common_b = set()
    if not common_a:
        # every match marks a tweet on each side, so common_b is empty too
        return DriverConfirmation(
            is_driver=False,
            recomputed_h=burst_score(series, index, min_history),
            recomputed_s=series.values[index],
            common_a=frozenset(),
            common_b=frozenset(),
        )
    # group x tweet selection of the remaining tweets
    kept = np.flatnonzero(
        [
            tweet_id not in (common_a if i < first_b else common_b)
            for i, tweet_id in enumerate(event_ids)
        ]
    )
    group_of = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    selection = sp.csr_matrix(
        (np.ones(kept.size), (group_of[kept], kept)), shape=(len(groups), len(event))
    )
    reduced = DayDocs.from_rows(((g, day) for g in range(len(groups))), selection @ matrix)
    side_a = range(len(rows_a))
    (new_s,) = similarity_series(
        reduced, side_a, range(len(side_a), len(groups)), [day], series.pair
    ).values
    values = series.values[:index] + (new_s,) + series.values[index + 1 :]
    new_h = burst_score(replace(series, values=values), index, min_history)
    is_driver = new_h is None or new_h < flag_threshold
    return DriverConfirmation(
        is_driver=is_driver,
        recomputed_h=new_h,
        recomputed_s=new_s,
        common_a=frozenset(common_a),
        common_b=frozenset(common_b),
    )
