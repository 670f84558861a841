import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaincc

import oracles
from sentinet.errors import DegenerateTableError, UndefinedScoreError
from sentinet.stats import (
    CodingMatrix,
    ContingencyTable,
    _upper_gamma_half,
    chi_square,
    krippendorff_alpha,
)

# misinformation yes/no counts reconstructed from reported cluster percentages
TABLE_3X2 = ContingencyTable.from_rows(
    ["left", "right", "far_right"],
    ["misinfo", "no_misinfo"],
    [[52, 309], [325, 57], [360, 48]],
)
TABLE_2X2 = ContingencyTable.from_rows(
    ["right", "far_right"], ["misinfo", "no_misinfo"], [[325, 57], [360, 48]]
)


class TestChiSquare:
    def test_three_cluster_statistic(self):
        result = chi_square(TABLE_3X2)
        assert result.statistic == pytest.approx(563.3, abs=1.5)
        assert result.df == 2
        assert result.p_value < 0.001

    def test_right_vs_far_right(self):
        result = chi_square(TABLE_2X2)
        assert result.statistic == pytest.approx(1.7, abs=0.3)
        assert result.df == 1
        assert result.p_value > 0.05

    def test_identical_rows_zero(self):
        table = ContingencyTable.from_rows(
            ["a", "b"], ["x", "y"], [[30, 70], [30, 70]]
        )
        assert chi_square(table).statistic == pytest.approx(0.0, abs=1e-12)

    def test_matches_scipy(self):
        from scipy.stats import chi2_contingency

        reference = chi2_contingency(TABLE_3X2.counts, correction=False)
        result = chi_square(TABLE_3X2)
        assert result.statistic == pytest.approx(float(reference[0]), rel=1e-12)
        assert result.p_value == pytest.approx(float(reference[1]), rel=1e-8)

    def test_zero_marginal_raises(self):
        table = ContingencyTable.from_rows(["a", "b"], ["x", "y"], [[0, 5], [0, 7]])
        with pytest.raises(DegenerateTableError):
            chi_square(table)

    def test_permutation_invariance(self):
        flipped = ContingencyTable.from_rows(
            ["far_right", "right", "left"],
            ["no_misinfo", "misinfo"],
            [[48, 360], [57, 325], [309, 52]],
        )
        assert chi_square(flipped).statistic == pytest.approx(
            chi_square(TABLE_3X2).statistic
        )

    @given(st.integers(min_value=2, max_value=5))
    @settings(max_examples=20)
    def test_integer_scaling_multiplies_statistic(self, m):
        base = chi_square(TABLE_2X2)
        scaled_table = ContingencyTable.from_rows(
            TABLE_2X2.row_labels, TABLE_2X2.col_labels, TABLE_2X2.counts * m
        )
        scaled = chi_square(scaled_table)
        assert scaled.statistic == pytest.approx(m * base.statistic, rel=1e-9)
        assert scaled.p_value <= base.p_value + 1e-12

    def test_csv_reader(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("cluster,misinfo,no_misinfo\nleft,52,309\nright,325,57\n")
        table = ContingencyTable.read_csv(path)
        assert table.row_labels == ("left", "right")
        assert table.counts[1, 0] == 325


class TestUpperGammaHalf:
    """The closed-form chi-square tail against scipy's regularized upper gamma."""

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 10, 11, 50, 51, 399, 400])
    def test_matches_gammaincc_from_zero_to_far_past_the_mean(self, df):
        xs = np.linspace(0.0, 3.0 * df + 50.0, 151)
        reference = gammaincc(df / 2.0, xs / 2.0)
        got = np.array([_upper_gamma_half(df, float(x)) for x in xs])
        assert reference[0] == got[0] == 1.0
        held = reference > 1e-300
        np.testing.assert_allclose(got[held], reference[held], rtol=1e-12)

    @pytest.mark.parametrize(
        "df, x", [(400, 2000.0), (1, 1300.0), (2, 1300.0), (3, 1300.0), (50, 1500.0), (1, 1e-300)]
    )
    def test_far_tail_and_near_zero(self, df, x):
        reference = float(gammaincc(df / 2.0, x / 2.0))
        assert reference > 1e-300
        assert _upper_gamma_half(df, x) == pytest.approx(reference, rel=1e-12)

    def test_underflows_where_the_tail_does(self):
        assert _upper_gamma_half(4, 3000.0) == 0.0
        assert _upper_gamma_half(5, 3000.0) == 0.0


def random_coding(rng, coders=4, items=200, missing_rate=0.2):
    rows = []
    for _ in range(coders):
        row = []
        for _ in range(items):
            if rng.random() < missing_rate:
                row.append(None)
            else:
                row.append(int(rng.integers(0, 2)))
        rows.append(tuple(row))
    return rows


class TestKrippendorffAlpha:
    def test_perfect_agreement(self):
        values = tuple(tuple([i % 2 for i in range(10)]) for _ in range(4))
        assert krippendorff_alpha(CodingMatrix(values)) == 1.0

    def test_systematic_disagreement_negative(self):
        matrix = CodingMatrix(values=((0, 1), (1, 0)))
        assert krippendorff_alpha(matrix) < 0

    def test_matches_coincidence_oracle(self):
        rng = np.random.default_rng(17)
        rows = random_coding(rng)
        mine = krippendorff_alpha(CodingMatrix(tuple(map(tuple, rows))))
        reference = oracles.alpha_coincidence([list(r) for r in rows])
        assert mine == pytest.approx(reference, abs=1e-9)

    def test_missing_only_items_dropped(self):
        matrix = CodingMatrix(values=((0, None, 1), (0, None, 1), (None, None, None)))
        assert krippendorff_alpha(matrix) == 1.0

    def test_no_pairable_values_raises(self):
        matrix = CodingMatrix(values=((0, None), (None, 1)))
        with pytest.raises(UndefinedScoreError):
            krippendorff_alpha(matrix)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(23)
        rows = random_coding(rng, coders=3, items=60)
        renamed = [
            tuple(None if v is None else ("yes" if v == 1 else "no") for v in row)
            for row in rows
        ]
        assert krippendorff_alpha(CodingMatrix(tuple(map(tuple, rows)))) == pytest.approx(
            krippendorff_alpha(CodingMatrix(tuple(renamed))), abs=1e-12
        )

    def test_known_textbook_value(self):
        # two coders, binary labels; hand-computed with the coincidence matrix
        rows = [[0, 0, 1, 1, 0], [0, 1, 1, 1, 0]]
        expected = oracles.alpha_coincidence(rows)
        matrix = CodingMatrix(values=tuple(map(tuple, rows)))
        assert krippendorff_alpha(matrix) == pytest.approx(expected, abs=1e-12)

    def test_csv_reader(self, tmp_path):
        path = tmp_path / "coding.csv"
        path.write_text("1,0,,1\n1,0,1,\n")
        matrix = CodingMatrix.read_csv(path)
        assert matrix.values == (("1", "0", None, "1"), ("1", "0", "1", None))
        assert krippendorff_alpha(matrix) == 1.0

    def test_requires_two_coders(self):
        with pytest.raises(ValueError):
            CodingMatrix(values=((1, 0),))
