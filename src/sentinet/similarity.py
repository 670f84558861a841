"""Daily inter-cluster trigram similarity, burst scoring, and stationarity.

Each community-day document sums the word-trigram counts of that
community's topical tweets for the day; every tweet is tokenized once.
Similarity between two clusters on a day is the mean cosine similarity over
cross-cluster community pairs. :func:`similarity_series` stacks a pair's
community-day documents into one sparse count matrix and gets each day's
cosines from a single sparse product, with the squared row norms computed
once. Counts stay integer-valued, so dots and norms are exact and every
cosine, and the left-to-right mean over them, equals what the per-pair
reference :func:`intercluster_similarity` returns bit for bit. The burst
score standardizes a day's similarity against the running mean and
standard deviation of all earlier valid days; days at or above the flag
threshold are marked as potential content-spread events.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .community import Label
from .errors import (
    InvalidDocumentError,
    ParameterError,
    UndefinedStatisticError,
)
from .fileio import atomic_open
from .ingest import TokenDoc, Trigram, TweetRecord, data_path, normalize_text

SD_FLOOR = 1e-12
SD_CONVENTION = "population"  # divide-by-N standard deviation


@dataclass(frozen=True)
class CommunityDayDoc:
    """Summed trigram counts of one community's tweets on one day."""

    community: Label
    day: date
    trigram_counts: Mapping[Trigram, int]
    tweet_ids: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return not self.trigram_counts


def doc_from_tweets(
    community: Label, day: date, tweets: Iterable[tuple[str, TokenDoc]]
) -> CommunityDayDoc:
    counts: dict[Trigram, int] = {}
    ids = []
    for tweet_id, doc in tweets:
        ids.append(tweet_id)
        for trigram, count in doc.trigram_counts.items():
            counts[trigram] = counts.get(trigram, 0) + count
    return CommunityDayDoc(
        community=community, day=day, trigram_counts=counts, tweet_ids=tuple(ids)
    )


def build_community_day_docs(
    records_by_community: Mapping[Label, Sequence[TweetRecord]],
    stopwords: frozenset[str],
) -> dict[tuple[Label, date], CommunityDayDoc]:
    """Group records by (community, day) and sum their trigram counts.

    Trigrams never cross tweet boundaries: each tweet is normalized on its
    own, once, and its counts are added as soon as it is tokenized, so the
    per-tweet token streams are never all held at the same time.
    """
    grouped: dict[tuple[Label, date], list[TweetRecord]] = {}
    for community in sorted(records_by_community, key=str):
        for record in records_by_community[community]:
            grouped.setdefault((community, record.day), []).append(record)
    return {
        (community, day): doc_from_tweets(
            community,
            day,
            ((r.tweet_id, normalize_text(r.text, stopwords)) for r in records),
        )
        for (community, day), records in grouped.items()
    }


def cosine_similarity(
    u: Mapping[Trigram, float], v: Mapping[Trigram, float]
) -> float:
    """Cosine of two nonnegative sparse trigram vectors, in [0, 1].

    Zero vectors are invalid input rather than similarity 0; callers mark
    the corresponding day invalid.
    """
    norm_sq_u = sum(x * x for x in u.values())
    norm_sq_v = sum(x * x for x in v.values())
    if norm_sq_u == 0 or norm_sq_v == 0:
        raise InvalidDocumentError("cosine similarity undefined for zero vectors")
    if len(u) > len(v):
        u, v = v, u
    dot = sum(count * v[tri] for tri, count in u.items() if tri in v)
    # sqrt of the product keeps identical integer vectors at exactly 1.0
    return min(1.0, dot / math.sqrt(norm_sq_u * norm_sq_v))


def intercluster_similarity(
    docs_a: Sequence[CommunityDayDoc], docs_b: Sequence[CommunityDayDoc]
) -> float | None:
    """Mean cosine similarity over cross-cluster community pairs.

    Pairs involving an empty document are skipped; None when no valid pair
    remains. This per-pair loop is the reference :func:`similarity_series`
    matches exactly; attribution uses it for its one-day recompute.
    """
    values = []
    for doc_a in docs_a:
        if doc_a.is_empty:
            continue
        for doc_b in docs_b:
            if doc_b.is_empty:
                continue
            values.append(cosine_similarity(doc_a.trigram_counts, doc_b.trigram_counts))
    if not values:
        return None
    return sum(values) / len(values)


@dataclass(frozen=True)
class SimilaritySeries:
    """Per-day inter-cluster similarity; None marks invalid days."""

    pair: tuple[Label, Label]
    days: tuple[date, ...]
    values: tuple[float | None, ...]

    def index_of(self, day: date) -> int:
        try:
            return self.days.index(day)
        except ValueError:
            raise ParameterError(f"day {day} not in series") from None


def similarity_series(
    day_docs: Mapping[tuple[Label, date], CommunityDayDoc],
    communities_a: Sequence[Label],
    communities_b: Sequence[Label],
    days: Sequence[date],
    pair: tuple[Label, Label],
) -> SimilaritySeries:
    """Assemble the daily similarity series for one cluster pair.

    Communities with no document on a day contribute nothing to that day's
    mean, matching the empty-document skip rule. Each value equals
    ``intercluster_similarity`` over the same documents exactly: the counts
    are integer-valued floats, so dots and squared norms carry no rounding,
    and the mean sums the cosines in the same order (cluster-a community
    outer, cluster-b community inner).
    """
    row_of: dict[tuple[Label, date], int] = {}
    # a trigram's column is its first-seen order: missing keys get len(column_of)
    column_of: defaultdict[Trigram, int] = defaultdict()
    column_of.default_factory = column_of.__len__
    columns: list[int] = []
    counts: list[int] = []
    indptr = [0]
    for day in days:
        for community in (*communities_a, *communities_b):
            key = (community, day)
            doc = day_docs.get(key)
            if doc is None or doc.is_empty or key in row_of:
                continue
            row_of[key] = len(row_of)
            columns.extend(map(column_of.__getitem__, doc.trigram_counts))
            counts.extend(doc.trigram_counts.values())
            indptr.append(len(columns))
    matrix = sp.csr_matrix(
        (np.asarray(counts, dtype=float), np.asarray(columns, dtype=np.int64), indptr),
        shape=(len(row_of), len(column_of)),
    )
    norms_sq = np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel()
    values: list[float | None] = []
    for day in days:
        rows_a = [row_of[(c, day)] for c in communities_a if (c, day) in row_of]
        rows_b = [row_of[(c, day)] for c in communities_b if (c, day) in row_of]
        if not rows_a or not rows_b:
            values.append(None)
            continue
        norms_a, norms_b = norms_sq[rows_a], norms_sq[rows_b]
        if not (norms_a.all() and norms_b.all()):
            raise InvalidDocumentError("cosine similarity undefined for zero vectors")
        dots = (matrix[rows_a] @ matrix[rows_b].T).toarray()
        cosines = np.minimum(1.0, dots / np.sqrt(np.outer(norms_a, norms_b)))
        values.append(sum(cosines.ravel().tolist()) / cosines.size)
    return SimilaritySeries(pair=pair, days=tuple(days), values=tuple(values))


def _history_stats(
    values: Sequence[float | None], index: int
) -> tuple[int, float, float]:
    prior = [v for v in values[:index] if v is not None]
    if not prior:
        return 0, 0.0, 0.0
    mean = sum(prior) / len(prior)
    variance = sum((v - mean) ** 2 for v in prior) / len(prior)
    return len(prior), mean, math.sqrt(variance)


def burst_score(
    series: SimilaritySeries, t: date | int, min_history: int = 7
) -> float | None:
    """Standardized deviation of day t's similarity from its history.

    Uses the mean and population standard deviation of all valid days
    before t. None when day t is invalid, when fewer than ``min_history``
    valid prior days exist, or when the historical deviation is below the
    numerical floor.
    """
    index = t if isinstance(t, int) else series.index_of(t)
    value = series.values[index]
    if value is None:
        return None
    count, mean, sd = _history_stats(series.values, index)
    if count < min_history or sd <= SD_FLOOR:
        return None
    return (value - mean) / sd


def burst_scores(
    series: SimilaritySeries, min_history: int = 7
) -> tuple[float | None, ...]:
    return tuple(
        burst_score(series, i, min_history) for i in range(len(series.days))
    )


def flag_days(
    series: SimilaritySeries, threshold: float = 2.0, min_history: int = 7
) -> set[date]:
    """Days whose burst score is defined and at or above the threshold."""
    scores = burst_scores(series, min_history)
    return {
        day
        for day, score in zip(series.days, scores)
        if score is not None and score >= threshold
    }


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    critical_value: float
    alpha: float
    reject: bool
    nobs: int

    @property
    def verdict(self) -> str:
        return "reject unit root (stationary)" if self.reject else "cannot reject unit root"


_ADF_LEVELS = {0.01: 1, 0.05: 2, 0.10: 3, "1%": 1, "5%": 2, "10%": 3}
_adf_table_cache: list[tuple[float, float, float, float]] | None = None


def _adf_table() -> list[tuple[float, float, float, float]]:
    global _adf_table_cache
    if _adf_table_cache is None:
        rows = []
        with open(data_path("adf_critical_values.csv"), encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                size, cv1, cv5, cv10 = line.split(",")
                rows.append(
                    (float("inf") if size == "inf" else float(size),
                     float(cv1), float(cv5), float(cv10))
                )
        rows.sort(key=lambda r: r[0])
        _adf_table_cache = rows
    return _adf_table_cache


def adf_critical_value(nobs: int, alpha: float | str = 0.05) -> float:
    """Constant-only Dickey-Fuller critical value, interpolated in sample size."""
    if alpha not in _ADF_LEVELS:
        raise ParameterError(f"alpha must be one of 1%/5%/10%, got {alpha!r}")
    column = _ADF_LEVELS[alpha]
    rows = _adf_table()
    finite = [row for row in rows if math.isfinite(row[0])]
    asymptotic = rows[-1] if not math.isfinite(rows[-1][0]) else None
    if nobs <= finite[0][0]:
        return finite[0][column]
    for low, high in zip(finite, finite[1:]):
        if nobs <= high[0]:
            weight = (nobs - low[0]) / (high[0] - low[0])
            return low[column] + weight * (high[column] - low[column])
    return (asymptotic or finite[-1])[column]


def adf_test(series: Sequence[float], alpha: float | str = 0.05) -> AdfResult:
    """Dickey-Fuller unit-root test, constant-only model with zero lags.

    Regresses the first difference on a constant and the lagged level; the
    statistic is the lagged-level coefficient over its standard error,
    compared against the left-tail critical value for the regression's
    sample size.
    """
    y = np.asarray(list(series), dtype=float)
    if y.size < 10:
        raise ParameterError("series too short for unit-root regression (need >= 10)")
    if not np.all(np.isfinite(y)):
        raise ParameterError("series contains non-finite values")
    dy = np.diff(y)
    lagged = y[:-1]
    design = np.column_stack([np.ones_like(lagged), lagged])
    gram = design.T @ design
    if abs(np.linalg.det(gram)) < 1e-12 * max(1.0, float(np.abs(gram).max()) ** 2):
        raise UndefinedStatisticError("degenerate regression: constant series")
    coef = np.linalg.solve(gram, design.T @ dy)
    residuals = dy - design @ coef
    dof = dy.size - 2
    rss = float(residuals @ residuals)
    slope = float(coef[1])
    if rss == 0.0:
        # exact fit (e.g. a pure linear trend): the statistic degenerates
        statistic = 0.0 if slope == 0.0 else math.copysign(math.inf, slope)
    else:
        sigma2 = rss / dof
        se = math.sqrt(sigma2 * float(np.linalg.inv(gram)[1, 1]))
        statistic = slope / se
    nobs = int(dy.size)
    critical = adf_critical_value(nobs, alpha)
    alpha_value = {1: 0.01, 2: 0.05, 3: 0.10}[_ADF_LEVELS[alpha]]
    return AdfResult(
        statistic=statistic,
        critical_value=critical,
        alpha=alpha_value,
        reject=statistic < critical,
        nobs=nobs,
    )


def write_series_csv(
    series_list: Sequence[SimilaritySeries],
    path: str | Path,
    threshold: float = 2.0,
    min_history: int = 7,
) -> None:
    """Export day,pair,s,valid,H,flagged rows for a set of cluster pairs."""
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["day", "pair", "s", "valid", "H", "flagged"])
        for series in series_list:
            scores = burst_scores(series, min_history)
            pair_name = f"{series.pair[0]}-{series.pair[1]}"
            for day, value, score in zip(series.days, series.values, scores):
                flagged = int(score is not None and score >= threshold)
                writer.writerow(
                    [
                        day.isoformat(),
                        pair_name,
                        "" if value is None else repr(value),
                        int(value is not None),
                        "" if score is None else repr(score),
                        flagged,
                    ]
                )


def read_series_csv(source: str | Path) -> list[SimilaritySeries]:
    with open(source, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    by_pair: dict[str, list[tuple[date, float | None]]] = {}
    for row in rows:
        value = float(row["s"]) if row["s"] else None
        by_pair.setdefault(row["pair"], []).append(
            (date.fromisoformat(row["day"]), value)
        )
    series_list = []
    for pair_name in sorted(by_pair):
        entries = sorted(by_pair[pair_name])
        left, _, right = pair_name.partition("-")
        series_list.append(
            SimilaritySeries(
                pair=(left, right),
                days=tuple(day for day, _ in entries),
                values=tuple(value for _, value in entries),
            )
        )
    return series_list

