from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from sentinet.errors import ParameterError
from sentinet.sentinel import activity
from sentinet.synthetic import SyntheticSpec, generate_corpus
from sentinet.topics import (
    TopicLexicon,
    filter_topic,
    filter_topic_tree,
    load_lexicons,
    matches_topic,
    rate_table,
    write_rates_csv,
)

WINDOW = (date(2020, 7, 1), date(2020, 7, 30))

HCQ = TopicLexicon("hydroxychloroquine", ("hcq", "hydrox", "chloroq"), parent="covid")
MASKS = TopicLexicon("facemasks", ("mask",), parent="covid")


class TestFilterTopic:
    def test_hcq_match(self, record_factory):
        records = [record_factory("1", "a", text="HCQ works")]
        assert filter_topic(records, HCQ) == records

    def test_mask_substring_case_insensitive(self, record_factory):
        records = [record_factory("1", "a", text="Masks off")]
        assert filter_topic(records, MASKS) == records

    def test_empty_lexicon_matches_nothing(self, record_factory):
        records = [record_factory("1", "a", text="anything at all")]
        assert filter_topic(records, TopicLexicon("empty", ())) == []

    def test_punctuated_phrases_matched_raw(self, record_factory):
        lexicons = load_lexicons()
        records = [record_factory("1", "a", text="new SARS-CoV-2 variant")]
        assert filter_topic(records, lexicons["covid"]) == records

    @given(st.sampled_from(["mask", "MASK", "unmasking", "the mask slipped"]))
    def test_substring_containment(self, text):
        assert matches_topic(text, MASKS)


class TestFilterTopicTree:
    def test_default_tree_loads(self):
        lexicons = load_lexicons()
        assert lexicons["downplay"].parent == "severity"
        assert lexicons["severity"].parent == "covid"
        assert "vaccinat" in lexicons["vaccines"].substrings

    def test_subtopics_are_subsets(self, record_factory):
        lexicons = load_lexicons()
        records = [
            record_factory("1", "a", text="covid death rate is lower than flu they say"),
            record_factory("2", "a", text="covid death rate rising"),
            record_factory("3", "a", text="pandemic vaccine will change dna nonsense"),
            record_factory("4", "a", text="nothing relevant"),
            record_factory("5", "a", text="death rate mild but no c-word"),
        ]
        matched = filter_topic_tree(records, lexicons)
        assert {r.tweet_id for r in matched["covid"]} == {"1", "2", "3"}
        for name, lexicon in lexicons.items():
            if lexicon.parent is not None:
                parent_ids = {r.tweet_id for r in matched[lexicon.parent]}
                child_ids = {r.tweet_id for r in matched[name]}
                assert child_ids <= parent_ids
        assert {r.tweet_id for r in matched["downplay"]} == {"1"}

    def test_nested_filter_composition(self, record_factory):
        parent = TopicLexicon("covid", ("covid",))
        child = TopicLexicon("masks", ("mask",), parent="covid")
        records = [
            record_factory("1", "a", text="covid mask debate"),
            record_factory("2", "a", text="mask but not the c word"),
            record_factory("3", "a", text="covid only"),
        ]
        via_tree = filter_topic_tree(records, {"covid": parent, "masks": child})
        direct = [
            r
            for r in records
            if matches_topic(r.text, parent) and matches_topic(r.text, child)
        ]
        assert via_tree["masks"] == direct

    def test_equals_filter_topic_chain_on_synthetic_corpus(self):
        records, _ = generate_corpus(SyntheticSpec())
        lexicons = load_lexicons()
        chained = {}
        # the default tree lists every parent before its children
        for name, lexicon in lexicons.items():
            pool = records if lexicon.parent is None else chained[lexicon.parent]
            chained[name] = filter_topic(pool, lexicon)
        assert chained["covid"]
        assert filter_topic_tree(records, lexicons) == chained

    def test_cycle_detected(self, record_factory):
        loop_a = TopicLexicon("a", ("x",), parent="b")
        loop_b = TopicLexicon("b", ("y",), parent="a")
        with pytest.raises(ParameterError):
            filter_topic_tree([], {"a": loop_a, "b": loop_b})


class TestRateTable:
    def build_ledger(self, record_factory, accounts=("a", "b"), days=30):
        records = {
            acct: [
                record_factory(f"{acct}{d}", acct, day_offset=d) for d in range(days)
            ]
            for acct in accounts
        }
        return activity(records, WINDOW)

    def test_two_community_arithmetic(self, record_factory):
        ledger = self.build_ledger(record_factory, accounts=("a", "b"))
        counts = {"topic": {"c1": 10, "c2": 30}}
        table = rate_table(counts, ledger, {"c1": ["a"], "c2": ["b"]})
        rows = {row.community: row for row in table.rows}
        # both communities have 30 active account days, so rates are counts/30
        assert rows["c1"].sum_scaled == pytest.approx(0.25)
        assert rows["c2"].sum_scaled == pytest.approx(0.75)
        assert rows["c1"].max_scaled == pytest.approx(1 / 3)
        assert rows["c2"].max_scaled == 1.0

    def test_single_community_sums_to_one(self, record_factory):
        ledger = self.build_ledger(record_factory, accounts=("a",))
        table = rate_table({"t": {"c": 5}}, ledger, {"c": ["a"]})
        assert table.rows[0].sum_scaled == 1.0
        assert table.rows[0].max_scaled == 1.0

    def test_daily_cluster_rate_identity(self, record_factory):
        accounts = tuple(f"s{i}" for i in range(15))
        ledger = self.build_ledger(record_factory, accounts=accounts)
        daily_counts = {"t": {"L": {date(2020, 7, 5): 45}}}
        table = rate_table(
            {"t": {"c": 45}},
            ledger,
            {"c": accounts},
            daily_counts=daily_counts,
            cluster_accounts={"L": accounts},
        )
        series = dict(table.daily[("t", "L")])
        assert series[date(2020, 7, 5)] == pytest.approx(45.0)
        assert series[date(2020, 7, 6)] == 0.0

    def test_zero_activity_excluded(self, record_factory):
        ledger = self.build_ledger(record_factory, accounts=("a",))
        table = rate_table(
            {"t": {"c1": 10, "ghost": 5}}, ledger, {"c1": ["a"], "ghost": ["nobody"]}
        )
        assert table.excluded == (("t", "ghost"),)
        assert {row.community for row in table.rows} == {"c1"}

    def test_all_zero_counts_leave_scales_missing(self, record_factory):
        ledger = self.build_ledger(record_factory, accounts=("a", "b"))
        table = rate_table({"t": {"c1": 0, "c2": 0}}, ledger, {"c1": ["a"], "c2": ["b"]})
        for row in table.rows:
            assert row.sum_scaled is None
            assert row.max_scaled is None

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=20)
    def test_count_scaling_invariance(self, multiplier):
        from conftest import make_record

        records = {
            acct: [make_record(f"{acct}{d}", acct, day_offset=d) for d in range(30)]
            for acct in ("a", "b")
        }
        ledger = activity(records, WINDOW)
        base = rate_table(
            {"t": {"c1": 4, "c2": 9}}, ledger, {"c1": ["a"], "c2": ["b"]}
        )
        scaled = rate_table(
            {"t": {"c1": 4 * multiplier, "c2": 9 * multiplier}},
            ledger,
            {"c1": ["a"], "c2": ["b"]},
        )
        for before, after in zip(base.rows, scaled.rows):
            assert after.sum_scaled == pytest.approx(before.sum_scaled)
            assert after.max_scaled == pytest.approx(before.max_scaled)

    def test_sum_scaled_sums_to_one(self, record_factory):
        ledger = self.build_ledger(record_factory, accounts=("a", "b", "c"))
        table = rate_table(
            {"t": {"c1": 3, "c2": 11, "c3": 6}},
            ledger,
            {"c1": ["a"], "c2": ["b"], "c3": ["c"]},
        )
        assert sum(row.sum_scaled for row in table.rows) == pytest.approx(1.0)
        assert max(row.max_scaled for row in table.rows) == 1.0

    def test_csv_export(self, tmp_path, record_factory):
        ledger = self.build_ledger(record_factory)
        table = rate_table({"t": {"c1": 10}}, ledger, {"c1": ["a"]})
        path = tmp_path / "rates.csv"
        write_rates_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("topic,community,count")
        assert len(lines) == 2
