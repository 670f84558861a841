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

Only the top-k singular values and document (left) vectors are computed,
with numpy alone, by a Golub-Kahan-Lanczos bidiagonalization
(:func:`truncated_svd`) of the matrix as given, started from a fixed
vector of uniform [-1, 1) values that a splitmix64 counter stream gives
(numpy's random generators are not loaded). It leaves rounding-level
components where a vector is exactly 0, so the gap rule counts such
components as 0.

Where singular values tie exactly, or a gap ratio equals ``MIN_GAP_RATIO``
exactly, selection follows the basis the Lanczos run returns. That basis
is fixed for a given matrix, but it can change with the order of the
matrix's rows or columns; exactly tied disjoint blocks, in particular, may
share a vector instead of taking one each.
"""

from __future__ import annotations

import math
from datetime import date
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .community import Label
from .ingest import CountMatrix
from .similarity import DayDocs, SimilaritySeries, burst_score, similarity_series
# imported by name so that perfbench's tracer, which wraps it at every
# import site, finds it here too
from .similarity import intercluster_similarity  # noqa: F401

GAP_WINDOW = 50
MIN_GAP_RATIO = 2.0
# Lanczos steps between two convergence checks: a check, an SVD of the
# bidiagonal matrix, costs about as much as two steps
_CHECK_EVERY = 4


class TopicalExtraction(NamedTuple):
    """Tweets selected per document singular vector, and their union."""

    singular_values: tuple[float, ...]
    per_vector: tuple[frozenset[str], ...]
    topical_ids: frozenset[str]


class DriverConfirmation(NamedTuple):
    is_driver: bool
    recomputed_h: float | None
    recomputed_s: float | None
    common_a: frozenset[str]
    common_b: frozenset[str]


def _orthogonalize(vector: np.ndarray, basis: np.ndarray) -> bool:
    """Remove from ``vector``, in place, its part in the span of ``basis``'s rows.

    Classical Gram-Schmidt, with a second pass when the first cut the norm
    by more than a factor sqrt(2) (the DGKS test, as ARPACK applies it).
    False when the second pass cuts it so again: what is left is rounding,
    and the vector lies in the span.
    """
    norm = math.sqrt(vector @ vector)
    for _ in range(2):
        vector -= (basis @ vector) @ basis
        previous, norm = norm, math.sqrt(vector @ vector)
        if norm > previous / math.sqrt(2):
            return True
    return False


class _Uniform:
    """A fixed stream of uniform [-1, 1) draws: splitmix64 of a running counter.

    Draw i (from 1) is the splitmix64 output of ``i * 0x9E3779B97F4A7C15``
    modulo 2**64 (Steele, Lea & Flood 2014), its top 53 bits scaled to
    [0, 2) and shifted by -1. numpy's uint64 arithmetic wraps, so every numpy
    version gives the same bits. Each call continues where the last one
    stopped.
    """

    def __init__(self) -> None:
        self._drawn = 0

    def __call__(self, n: int) -> np.ndarray:
        z = np.arange(self._drawn + 1, self._drawn + n + 1, dtype=np.uint64)
        self._drawn += n
        z *= np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(float) * 2.0**-52 - 1.0


def _fresh(uniform: _Uniform, basis: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to ``basis``'s rows, which must not span the space."""
    vector = uniform(basis.shape[1])
    _orthogonalize(vector, basis)
    return vector / math.sqrt(vector @ vector)


def truncated_svd(matrix: CountMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k singular values, non-increasing, and their left singular vectors.

    Returns min(k, rows, columns) of them, the vectors orthonormal, from a
    Golub-Kahan-Lanczos bidiagonalization of the matrix as given, with full
    reorthogonalization: step j extends orthonormal bases V of the smaller
    side and U of the larger one with ``A V_j = U_j B_j``, B_j upper
    bidiagonal, each new vector orthogonalized against every earlier one of
    its side (:func:`_orthogonalize`), and the singular triplets of B_j give
    the Ritz approximations. The run starts, as ARPACK's does, from a vector
    of uniform [-1, 1) values: the first draws of a fixed stream
    (:class:`_Uniform`), so it repeats across calls and processes. A new
    vector that lies in the span of its basis is a breakdown: its coupling in
    B is 0 and the stream's next draws, orthogonalized against the basis,
    take its place, so the basis keeps growing and exact zero singular
    values come out 0.

    The run stops when the basis spans the smaller side, where the Ritz
    triplets are exact, or once it holds at least max(2k + 1, 20) vectors
    (ARPACK's default basis size) and each of the top-k Ritz triplets has
    residual ``beta_j * |P[j, i]|`` at most ``eps * s[0]``: the next
    coupling times the last component of the triplet's singular vector of
    B_j. The residuals are checked every ``_CHECK_EVERY`` steps. The
    minimum basis size leaves room for the second copy of a repeated
    singular value, which only rounding brings into the Krylov space, to
    appear.
    """
    rows, cols = matrix.shape
    k = min(k, rows, cols)
    data, indices = matrix.data, matrix.indices
    entry_row = np.repeat(np.arange(rows), np.diff(matrix.indptr))
    uniform = _Uniform()

    def times(x: np.ndarray) -> np.ndarray:
        return np.bincount(entry_row, weights=data * x[indices], minlength=rows)

    def times_transposed(y: np.ndarray) -> np.ndarray:
        return np.bincount(indices, weights=data * y[entry_row], minlength=cols)

    # v-side: the smaller one, so the basis fills it in at most that many steps
    left_is_u = cols <= rows
    forward, backward = (times, times_transposed) if left_is_u else (times_transposed, times)
    n, m = min(rows, cols), max(rows, cols)
    least = min(n, max(2 * k + 1, 20))
    v_basis, u_basis = np.empty((least + 1, n)), np.empty((least, m))
    alphas: list[float] = []
    betas: list[float] = []
    start = uniform(n)
    v_basis[0] = start / math.sqrt(start @ start)
    for j in range(n):
        if j == len(u_basis):
            u_basis = _grown(u_basis, min(n, 2 * j))
            v_basis = _grown(v_basis, min(n, 2 * j) + 1)
        u = forward(v_basis[j])
        if j:
            u -= betas[-1] * u_basis[j - 1]
        if _orthogonalize(u, u_basis[:j]):
            alphas.append(math.sqrt(u @ u))
            np.divide(u, alphas[-1], out=u_basis[j])
        else:
            alphas.append(0.0)
            u_basis[j] = _fresh(uniform, u_basis[:j])
        size = j + 1
        if size == n:
            break
        v = backward(u_basis[j])
        v -= alphas[-1] * v_basis[j]
        if _orthogonalize(v, v_basis[:size]):
            betas.append(math.sqrt(v @ v))
            np.divide(v, betas[-1], out=v_basis[size])
        else:
            betas.append(0.0)
            v_basis[size] = _fresh(uniform, v_basis[:size])
        if size >= least and (size - least) % _CHECK_EVERY == 0:
            p, s, _ = np.linalg.svd(np.diag(alphas) + np.diag(betas[:-1], 1))
            if np.all(betas[-1] * np.abs(p[-1, :k]) <= np.finfo(float).eps * s[0]):
                break
    p, s, qt = np.linalg.svd(np.diag(alphas) + np.diag(betas[: size - 1], 1))
    if left_is_u:
        return u_basis[:size].T @ p[:, :k], s[:k]
    return v_basis[:size].T @ qt[:k].T, s[:k]


def _grown(basis: np.ndarray, size: int) -> np.ndarray:
    """``basis`` with room for ``size`` rows, its rows copied first."""
    bigger = np.empty((size, basis.shape[1]))
    bigger[: len(basis)] = basis
    return bigger


def _gap_select(magnitudes: np.ndarray) -> int:
    """Count of leading entries above the sharpest drop, 0 when no sharp drop.

    ``magnitudes`` must be sorted descending. A single entry counts as its
    own plateau and is always selected. The drop is the largest ratio
    between consecutive magnitudes within the leading window; it must reach
    MIN_GAP_RATIO for anything to be selected. An entry at or below
    ``first * sqrt(len(magnitudes) * eps)``, the relative null level of
    :func:`lsa_topical_tweets`, is a rounding-level remnant of an exact zero
    and counts as 0: a drop to it is a drop to zero, and a drop from it is none.
    """
    window = magnitudes[: min(GAP_WINDOW, magnitudes.size)]
    if window.size == 0 or window[0] <= 0:
        return 0
    if window.size == 1:
        return 1
    rounding = float(window[0]) * math.sqrt(magnitudes.size * np.finfo(float).eps)
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
    counts: CountMatrix, ids: Sequence[str], rows: Sequence[int], k: int = 5
) -> TopicalExtraction:
    """Select topical tweets from the top-k document singular vectors.

    ``counts`` is a tweet x trigram count matrix, row i the tweet ``ids[i]``;
    the extraction reads its ``rows``, in that order, and the trigrams they
    hold, in the matrix's column order. Tweets with no trigram are ignored.
    Per vector, component magnitudes are sorted descending and the tweets
    above the largest consecutive-ratio gap are selected; the topical set is
    the union over vectors. At most ``sqrt(rows * eps)`` times the largest is
    a rounding-level zero: a vector with such a singular value spans part of
    the null space and selects nothing; such a component counts as 0 in the gap rule.
    """
    rows = [row for row in rows if counts.indptr[row] < counts.indptr[row + 1]]
    if not rows:
        return TopicalExtraction(singular_values=(), per_vector=(), topical_ids=frozenset())
    u, s = truncated_svd(counts.take(rows).compact(), k)
    # an exact zero singular value comes out at rounding level, far below
    # this; it is the same relative level as _gap_select's floor
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
    counts: CountMatrix,
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
        matrix = counts.take(event)
        present = matrix._replace(data=np.ones_like(matrix.data))
        sizes = np.diff(present.indptr)  # each tweet's distinct trigrams
        # the cross-side block of the topical tweets' shared-trigram counts
        shared = present.take(topical_a + topical_b).gram()[: len(topical_a), len(topical_a) :]
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
    # each group's document: the sum of its remaining tweets' rows
    kept = np.flatnonzero(
        [
            tweet_id not in (common_a if i < first_b else common_b)
            for i, tweet_id in enumerate(event_ids)
        ]
    )
    group_of = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    reduced = DayDocs.from_rows(
        range(len(groups)), matrix.take(kept).group_sums(group_of[kept], len(groups))
    )
    side_a = range(len(rows_a))
    (new_s,) = similarity_series(
        {day: reduced}, side_a, range(len(side_a), len(groups)), [day], series.pair
    ).values
    values = series.values[:index] + (new_s,) + series.values[index + 1 :]
    new_h = burst_score(series._replace(values=values), index, min_history)
    is_driver = new_h is None or new_h < flag_threshold
    return DriverConfirmation(
        is_driver=is_driver,
        recomputed_h=new_h,
        recomputed_s=new_s,
        common_a=frozenset(common_a),
        common_b=frozenset(common_b),
    )
