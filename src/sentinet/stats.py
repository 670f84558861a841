"""Contingency-table and inter-coder reliability statistics."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Hashable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateTableError, UndefinedScoreError
from .fileio import read_csv


class ContingencyTable(NamedTuple):
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: np.ndarray

    @classmethod
    def from_rows(
        cls,
        row_labels: Sequence[str],
        col_labels: Sequence[str],
        counts: Sequence[Sequence[int]],
    ) -> "ContingencyTable":
        array = np.asarray(counts, dtype=float)
        if array.ndim != 2 or array.shape != (len(row_labels), len(col_labels)):
            raise ValueError("counts shape must match the label lists")
        if np.any(array < 0):
            raise ValueError("counts must be nonnegative")
        return cls(tuple(row_labels), tuple(col_labels), array)

    @classmethod
    def read_csv(cls, source: str | Path) -> "ContingencyTable":
        header, *rows = read_csv(source)
        return cls.from_rows(
            [row[0] for row in rows], header[1:], [[int(v) for v in row[1:]] for row in rows]
        )


class ChiSquareResult(NamedTuple):
    statistic: float
    df: int
    p_value: float


def chi_square(table: ContingencyTable) -> ChiSquareResult:
    """Pearson chi-square test of homogeneity.

    Expected counts come from the row and column marginals; the p-value is
    the regularized upper incomplete gamma function Q(df/2, statistic/2).
    """
    counts = table.counts
    if counts.shape[0] < 2 or counts.shape[1] < 2:
        raise DegenerateTableError("need at least a 2x2 table")
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    if np.any(row_sums == 0) or np.any(col_sums == 0):
        raise DegenerateTableError("zero marginal row or column")
    total = counts.sum()
    expected = np.outer(row_sums, col_sums) / total
    statistic = float(((counts - expected) ** 2 / expected).sum())
    df = (counts.shape[0] - 1) * (counts.shape[1] - 1)
    return ChiSquareResult(statistic=statistic, df=df, p_value=_upper_gamma_half(df, statistic))


def _upper_gamma_half(df: int, x: float) -> float:
    """Q(df/2, x/2) for an integer ``df`` >= 1, in closed form (A&S 26.4.4-26.4.5).

    With h = x/2: the sum of e^-h h^i / i! over i < df/2 for even df; for odd
    df, erfc(sqrt h) plus the sum of e^-h h^(i+1/2) / Γ(i+3/2) over i < (df-1)/2.
    Each term is taken through its logarithm, so it underflows only where its value does.
    """
    if x <= 0:
        return 1.0
    h, a = x / 2.0, (df % 2) / 2.0
    terms = [math.exp((i + a) * math.log(h) - h - math.lgamma(i + a + 1)) for i in range(df // 2)]
    return math.fsum([math.erfc(math.sqrt(h)) if df % 2 else 0.0, *terms])


@dataclass(frozen=True)
class CodingMatrix:
    """Coders x items nominal labels; None marks a missing annotation."""

    values: tuple[tuple[Hashable | None, ...], ...]

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError("need at least 2 coders")
        widths = {len(row) for row in self.values}
        if len(widths) > 1:
            raise ValueError("coder rows must have equal length")

    @property
    def n_items(self) -> int:
        return len(self.values[0])

    def item_labels(self, item: int) -> list[Hashable]:
        return [row[item] for row in self.values if row[item] is not None]

    @classmethod
    def read_csv(cls, source: str | Path) -> "CodingMatrix":
        values = tuple(
            tuple(cell.strip() if cell.strip() else None for cell in row)
            for row in read_csv(source)
            if row
        )
        return cls(values=values)


def krippendorff_alpha(matrix: CodingMatrix) -> float:
    """Nominal-level Krippendorff alpha over pairable values.

    Items annotated by fewer than two coders are dropped. Observed
    disagreement averages within-item disagreeing ordered pairs weighted by
    1/(m_u - 1); expected disagreement comes from the pooled label counts.
    Computed in exact rational arithmetic, returned as float.
    """
    pairable_items = [
        labels
        for item in range(matrix.n_items)
        if len(labels := matrix.item_labels(item)) >= 2
    ]
    total_values = sum(len(labels) for labels in pairable_items)
    if total_values < 2:
        raise UndefinedScoreError("no pairable values")
    observed = Fraction(0)
    for labels in pairable_items:
        m = len(labels)
        disagreeing = sum(
            1 for i in range(m) for j in range(m) if i != j and labels[i] != labels[j]
        )
        observed += Fraction(disagreeing, m - 1)
    observed /= total_values
    if observed == 0:
        return 1.0
    pooled = Counter(label for labels in pairable_items for label in labels)
    expected_pairs = sum(
        count_c * count_k
        for c, count_c in pooled.items()
        for k, count_k in pooled.items()
        if c != k
    )
    expected = Fraction(expected_pairs, total_values * (total_values - 1))
    if expected == 0:
        raise UndefinedScoreError("zero expected disagreement with observed disagreement")
    return float(1 - observed / expected)
