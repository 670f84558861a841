"""Daily inter-cluster trigram similarity, burst scoring, and stationarity.

Each community-day document sums the word-trigram counts of that
community's topical tweets for the day. :func:`day_batches` groups the
rows by day once. :func:`count_day` tokenizes each community-day's tweets
as one batch of :func:`~sentinet.ingest.tokenize_rows` and counts the
day's community-days with a :class:`~sentinet.ingest.TrigramEncoder` into
the rows of one :class:`~sentinet.ingest.CountMatrix`;
:func:`build_community_day_docs` reduces that matrix at once to what
:func:`similarity_series` reads, the dot products of every pair of the
day's rows (:class:`DayDocs`), and drops it before the next day is
counted. What a process holds at once thus follows the busiest day, not
the length of the window; what the build keeps is one small Gram matrix
per day. A day's Gram matrix does not depend on the encoder's token
numbering: each entry is an exact sum of products of integer counts. So
the build counts the days across CPUs, each process with its own copy of
one encoder, and gets what one process counting every day gets.
Similarity between two clusters on a day is the mean cosine similarity
over cross-cluster community pairs, read from the day's Gram matrix.
Counts stay integer-valued, so dots and norms are exact and every cosine,
and the left-to-right mean over them, equals what the per-pair reference
:func:`intercluster_similarity` returns bit for bit; that reference, with
:func:`cosine_similarity` and :class:`CommunityDayDoc`, serves the tests
and is not on the pipeline's path. Driver confirmation
(:func:`sentinet.lsa.confirm_drivers`) recomputes its one day with
:func:`similarity_series` on documents of its own, made by the same
:meth:`DayDocs.from_rows`. The burst score standardizes a day's
similarity against the running mean and standard deviation of all earlier
valid days; days at or above the flag threshold are marked as potential
content-spread events.
"""

from __future__ import annotations

import math
from datetime import date
from functools import cache
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .community import Label
from .errors import InvalidDocumentError, ParameterError, UndefinedScoreError
from .fileio import across_cpus, read_csv, read_lines, write_csv
from .ingest import (
    CountMatrix,
    Corpus,
    StringColumn,
    TrigramEncoder,
    data_path,
    day_date,
    tokenize_rows,
)
# imported by name so that perfbench's tracer, which wraps it at every
# import site, finds it here too
from .ingest import normalize_text  # noqa: F401

SD_FLOOR = 1e-12
SD_CONVENTION = "population"  # divide-by-N standard deviation


class CommunityDayDoc(NamedTuple):
    """Summed trigram counts of one community's tweets on one day, keyed by trigram."""

    community: Label
    day: date
    trigram_counts: Mapping
    tweet_ids: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return not self.trigram_counts


class DayDocs(NamedTuple):
    """One day's community-day documents, reduced to what :func:`similarity_series` reads.

    ``position[community]`` is the community's row, and ``gram`` holds the
    dot products of every pair of rows; its diagonal is the rows' squared
    norms, 0 for a community whose tweets have no trigram. Every entry is
    an exact sum of integers.
    """

    position: Mapping[Label, int]
    gram: np.ndarray

    @classmethod
    def from_rows(cls, communities: Iterable[Label], matrix: CountMatrix) -> DayDocs:
        """The documents of ``communities``, the i-th one's counts in row i of ``matrix``."""
        return cls({community: row for row, community in enumerate(communities)}, matrix.gram())

    def rows(self, communities: Iterable[Label]) -> list[int]:
        """The rows of those of ``communities`` whose document holds a trigram, in order."""
        found = (self.position.get(community) for community in communities)
        return [row for row in found if row is not None and self.gram[row, row] > 0]


def day_batches(
    corpus: Corpus, rows_by_community: Mapping[Label, Sequence[int]]
) -> dict[int, dict[Label, np.ndarray]]:
    """Day number -> community -> its rows of ``corpus`` on the day.

    Days ascend, each holds the communities with rows on it in label order,
    and each batch keeps the rows' given order.
    """
    days = corpus.days
    batches: dict[int, dict[Label, np.ndarray]] = {}
    for community in sorted(rows_by_community, key=str):
        rows = np.asarray(rows_by_community[community], dtype=np.intp)
        rows = rows[np.argsort(days[rows], kind="stable")]
        group_days, starts = np.unique(days[rows], return_index=True)
        for day, batch in zip(group_days.tolist(), np.split(rows, starts[1:])):
            batches.setdefault(day, {})[community] = batch
    return dict(sorted(batches.items()))


def count_day(
    texts: StringColumn, batches: Mapping[Label, np.ndarray], encoder: TrigramEncoder
) -> tuple[CountMatrix, np.ndarray]:
    """:meth:`TrigramEncoder.count` of one day's :func:`day_batches`, one row per
    community, each row's stream the :func:`tokenize_rows` of its batch."""
    return encoder.count(tokenize_rows(texts, rows) for rows in batches.values())


def build_community_day_docs(
    corpus: Corpus,
    rows_by_community: Mapping[Label, Sequence[int]],
    encoder: TrigramEncoder,
) -> dict[date, DayDocs]:
    """Each day's :class:`DayDocs` of the :func:`day_batches` of ``corpus``, the days
    counted across CPUs, each process with its own copy of ``encoder``."""
    batches = day_batches(corpus, rows_by_community)
    docs = across_cpus(
        lambda day: DayDocs.from_rows(day, count_day(corpus.texts, day, encoder)[0]),
        list(batches.values()),
        [sum(rows.size for rows in day.values()) for day in batches.values()],
    )
    return {day_date(number): day for number, day in zip(batches, docs)}


def cosine_similarity(u: Mapping, v: Mapping) -> float:
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
    remains. This per-pair loop is the reference that
    :func:`similarity_series` matches exactly.
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


class SimilaritySeries(NamedTuple):
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
    day_docs: Mapping[date, DayDocs],
    communities_a: Sequence[Label],
    communities_b: Sequence[Label],
    days: Sequence[date],
    pair: tuple[Label, Label],
) -> SimilaritySeries:
    """Assemble the daily similarity series for one cluster pair.

    Communities with no document on a day, or a document with no trigram,
    contribute nothing to that day's mean, matching the empty-document skip
    rule. Each value equals ``intercluster_similarity`` over the same
    documents exactly: the counts are integer-valued floats, so dots and
    squared norms carry no rounding, and the mean sums the cosines in the
    same order (cluster-a community outer, cluster-b community inner).
    """
    values: list[float | None] = []
    for day in days:
        docs = day_docs.get(day)
        rows_a = docs.rows(communities_a) if docs is not None else []
        rows_b = docs.rows(communities_b) if docs is not None else []
        if not rows_a or not rows_b:
            values.append(None)
            continue
        norms_sq = docs.gram.diagonal()
        dots = docs.gram[np.ix_(rows_a, rows_b)]
        cosines = np.minimum(
            1.0, dots / np.sqrt(np.outer(norms_sq[rows_a], norms_sq[rows_b]))
        )
        values.append(sum(cosines.ravel().tolist()) / cosines.size)
    return SimilaritySeries(pair=pair, days=tuple(days), values=tuple(values))


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
    prior = [v for v in series.values[:index] if v is not None]
    if value is None or not prior or len(prior) < min_history:
        return None
    mean = sum(prior) / len(prior)
    sd = math.sqrt(sum((v - mean) ** 2 for v in prior) / len(prior))
    if sd <= SD_FLOOR:
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


class AdfResult(NamedTuple):
    statistic: float
    critical_value: float
    alpha: float
    reject: bool
    nobs: int

    @property
    def verdict(self) -> str:
        return "reject unit root (stationary)" if self.reject else "cannot reject unit root"


_ADF_LEVELS = {0.01: 1, 0.05: 2, 0.10: 3}


@cache
def _adf_table() -> list[tuple[float, ...]]:
    """(sample size, 1%, 5%, 10% critical values) rows by ascending size."""
    rows = read_lines(data_path("adf_critical_values.csv"))
    return sorted(tuple(map(float, line.split(","))) for line in rows)


def adf_critical_value(nobs: int, alpha: float = 0.05) -> float:
    """Constant-only Dickey-Fuller critical value, interpolated in sample size."""
    if alpha not in _ADF_LEVELS:
        raise ParameterError(f"alpha must be one of 0.01, 0.05 or 0.10, got {alpha!r}")
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


def adf_test(series: Sequence[float], alpha: float = 0.05) -> AdfResult:
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
        raise UndefinedScoreError("degenerate regression: constant series")
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
    return AdfResult(
        statistic=statistic,
        critical_value=critical,
        alpha=alpha,
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
    write_csv(
        path,
        ["day", "pair", "s", "valid", "H", "flagged"],
        (
            [
                day.isoformat(),
                f"{series.pair[0]}-{series.pair[1]}",
                value,
                int(value is not None),
                score,
                int(score is not None and score >= threshold),
            ]
            for series in series_list
            for day, value, score in zip(
                series.days, series.values, burst_scores(series, min_history)
            )
        ),
    )


def read_series_csv(source: str | Path) -> list[SimilaritySeries]:
    """The series of :func:`write_series_csv`'s rows; a pair's day given twice is a ValueError."""
    _, *rows = read_csv(source)
    by_pair: dict[str, dict[date, float | None]] = {}
    for day, pair_name, value, *_ in rows:
        values = by_pair.setdefault(pair_name, {})
        moment = date.fromisoformat(day)
        if moment in values:
            raise ValueError(f"day {day} of pair {pair_name} listed twice")
        values[moment] = float(value) if value else None
    series_list = []
    for pair_name in sorted(by_pair):
        entries = sorted(by_pair[pair_name].items())
        left, _, right = pair_name.partition("-")
        series_list.append(
            SimilaritySeries(
                pair=(left, right),
                days=tuple(day for day, _ in entries),
                values=tuple(value for _, value in entries),
            )
        )
    return series_list
