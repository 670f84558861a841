from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import corpus_of, make_record, rows_of
from oracles import filter_topic, matches_topic
from sentinet.errors import ParameterError
from sentinet.ingest import PACKAGED
from sentinet.topics import (
    DEFAULT_TOPIC_TREE,
    TopicLexicon,
    filter_topic_tree,
    load_lexicons,
    rate_table,
    write_rates_csv,
)

DAYS = [date(2020, 7, 1) + timedelta(days=i) for i in range(30)]

HCQ = TopicLexicon("hydroxychloroquine", ("hcq", "hydrox", "chloroq"), parent="covid")
MASKS = TopicLexicon("facemasks", ("mask",), parent="covid")


def filter_topic_chain(records, lexicons):
    """The reference: each lexicon's filter_topic over its parent's chained matches."""
    chained = {}

    def matches(name):
        if name not in chained:
            parent = lexicons[name].parent
            pool = records if parent is None else matches(parent)
            chained[name] = filter_topic(pool, lexicons[name])
        return chained[name]

    for name in lexicons:
        matches(name)
    return chained


def filter_records(records, lexicons):
    """filter_topic_tree over a corpus of ``records``, its matched rows as records."""
    matched = filter_topic_tree(corpus_of(records), range(len(records)), lexicons)
    return {name: [records[row] for row in rows.tolist()] for name, rows in matched.items()}


# short needles over a small alphabet overlap and contain one another
# "\n" joins a pool's texts in filter_topic_tree, so needles and texts hold it too
NEEDLES = st.text(alphabet="abc-\n", min_size=1, max_size=3)
MIXED_CASE_TEXT = st.text(alphabet="abcABC- xİ\n", max_size=14)


@st.composite
def lexicon_trees(draw):
    """Up to five lexicons, each parent drawn before its children, listed in random order."""
    names = draw(st.lists(st.sampled_from("pqrstu"), min_size=1, max_size=5, unique=True))
    lexicons = {}
    for i, name in enumerate(names):
        needles = draw(st.lists(NEEDLES, max_size=4))
        if needles and draw(st.booleans()):
            # a needle that is a substring of another needle of the same lexicon
            needles.append(needles[0] + draw(NEEDLES))
        parent = draw(st.sampled_from([None, *names[:i]]))
        lexicons[name] = TopicLexicon(name, tuple(needles), parent=parent)
    order = draw(st.permutations(names))
    return {name: lexicons[name] for name in order}


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

    def test_packaged_lexicons_keep_file_order(self):
        lexicons = load_lexicons()
        assert lexicons.keys() == DEFAULT_TOPIC_TREE.keys()
        for name, (filename, _) in DEFAULT_TOPIC_TREE.items():
            text = (PACKAGED["lexicon_dir"] / filename).read_text(encoding="utf-8")
            lines = [line.strip() for line in text.splitlines()]
            expected = tuple(line.lower() for line in lines if line and line[0] != "#")
            assert lexicons[name].substrings == expected, name

    def test_subtopics_are_subsets(self, record_factory):
        lexicons = load_lexicons()
        records = [
            record_factory("1", "a", text="covid death rate is lower than flu they say"),
            record_factory("2", "a", text="covid death rate rising"),
            record_factory("3", "a", text="pandemic vaccine will change dna nonsense"),
            record_factory("4", "a", text="nothing relevant"),
            record_factory("5", "a", text="death rate mild but no c-word"),
        ]
        matched = filter_records(records, lexicons)
        assert {r["tweet_id"] for r in matched["covid"]} == {"1", "2", "3"}
        for name, lexicon in lexicons.items():
            if lexicon.parent is not None:
                parent_ids = {r["tweet_id"] for r in matched[lexicon.parent]}
                child_ids = {r["tweet_id"] for r in matched[name]}
                assert child_ids <= parent_ids
        assert {r["tweet_id"] for r in matched["downplay"]} == {"1"}

    def test_nested_filter_composition(self, record_factory):
        parent = TopicLexicon("covid", ("covid",))
        child = TopicLexicon("masks", ("mask",), parent="covid")
        records = [
            record_factory("1", "a", text="covid mask debate"),
            record_factory("2", "a", text="mask but not the c word"),
            record_factory("3", "a", text="covid only"),
        ]
        via_tree = filter_records(records, {"covid": parent, "masks": child})
        direct = [
            r
            for r in records
            if matches_topic(r["text"], parent) and matches_topic(r["text"], child)
        ]
        assert via_tree["masks"] == direct

    def test_equals_filter_topic_chain_on_synthetic_corpus(self, default_corpus):
        records = rows_of(default_corpus[0])
        lexicons = load_lexicons()
        chained = filter_topic_chain(records, lexicons)
        assert chained["covid"]
        assert filter_records(records, lexicons) == chained

    @settings(max_examples=200, deadline=None)
    @given(tree=lexicon_trees(), texts=st.lists(MIXED_CASE_TEXT, max_size=12))
    # needles that occur only in the last text of their pool: "c" in r's
    # pool of every text and in q's pool of p's matches
    @example(
        tree={
            "p": TopicLexicon("p", ("b",)),
            "q": TopicLexicon("q", ("c",), parent="p"),
            "r": TopicLexicon("r", ("c",)),
        },
        texts=["a", "ab", "ba", "abc"],
    )
    # a needle that occurs only across the join of two texts
    @example(tree={"p": TopicLexicon("p", ("a\nb",))}, texts=["xa", "bx", "a", "b"])
    def test_equals_filter_topic_chain_on_random_trees(self, tree, texts):
        records = [make_record(str(i), "a", text=text) for i, text in enumerate(texts)]
        assert filter_records(records, tree) == filter_topic_chain(records, tree)

    def test_matches_are_the_given_rows_in_their_order(self, record_factory):
        texts = ["covid mask", "mask", "covid", "COVID masks", "nothing"]
        corpus = corpus_of(record_factory(str(i), "a", text=text) for i, text in enumerate(texts))
        parent = TopicLexicon("covid", ("covid",))
        child = TopicLexicon("masks", ("mask",), parent="covid")
        matched = filter_topic_tree(corpus, [3, 1, 0, 4], {"covid": parent, "masks": child})
        assert matched["covid"].tolist() == [3, 0]
        assert matched["masks"].tolist() == [3, 0]

    def test_cycle_detected(self, record_factory):
        loop_a = TopicLexicon("a", ("x",), parent="b")
        loop_b = TopicLexicon("b", ("y",), parent="a")
        with pytest.raises(ParameterError):
            filter_records([], {"a": loop_a, "b": loop_b})


def rates(counts, account_days):
    """rate_table over the communities' active account days, with no daily series."""
    return rate_table(counts, account_days, DAYS, {}, {})


class TestRateTable:
    def test_two_community_arithmetic(self):
        table = rates({"topic": {"c1": 10, "c2": 30}}, {"c1": 30, "c2": 30})
        rows = {row.community: row for row in table.rows}
        # both communities have 30 active account days, so rates are counts/30
        assert rows["c1"].sum_scaled == pytest.approx(0.25)
        assert rows["c2"].sum_scaled == pytest.approx(0.75)
        assert rows["c1"].max_scaled == pytest.approx(1 / 3)
        assert rows["c2"].max_scaled == 1.0
        assert rows["c1"].active_account_days == 30 and table.daily == {}

    def test_single_community_sums_to_one(self):
        table = rates({"t": {"c": 5}}, {"c": 30})
        assert table.rows[0].sum_scaled == 1.0
        assert table.rows[0].max_scaled == 1.0

    def test_daily_cluster_rate_identity(self):
        counts = np.zeros(30, dtype=np.int64)
        counts[4] = 45
        active = np.full(30, 15)
        active[7] = 0
        table = rate_table(
            {"t": {"c": 45}}, {"c": 450}, DAYS, {"t": {"L": counts}}, {"L": active}
        )
        series = dict(table.daily[("t", "L")])
        assert list(series) == DAYS
        assert series[date(2020, 7, 5)] == pytest.approx(45.0)
        assert series[date(2020, 7, 6)] == 0.0
        # a day with no active account has no rate
        assert series[date(2020, 7, 8)] is None

    def test_zero_activity_excluded(self):
        table = rates({"t": {"c1": 10, "ghost": 5}}, {"c1": 30, "ghost": 0})
        assert table.excluded == (("t", "ghost"),)
        assert {row.community for row in table.rows} == {"c1"}

    def test_all_zero_counts_leave_scales_missing(self):
        table = rates({"t": {"c1": 0, "c2": 0}}, {"c1": 30, "c2": 30})
        for row in table.rows:
            assert row.sum_scaled is None
            assert row.max_scaled is None

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=20)
    def test_count_scaling_invariance(self, multiplier):
        account_days = {"c1": 30, "c2": 30}
        base = rates({"t": {"c1": 4, "c2": 9}}, account_days)
        scaled = rates({"t": {"c1": 4 * multiplier, "c2": 9 * multiplier}}, account_days)
        for before, after in zip(base.rows, scaled.rows):
            assert after.sum_scaled == pytest.approx(before.sum_scaled)
            assert after.max_scaled == pytest.approx(before.max_scaled)

    def test_sum_scaled_sums_to_one(self):
        table = rates({"t": {"c1": 3, "c2": 11, "c3": 6}}, {"c1": 30, "c2": 30, "c3": 30})
        assert sum(row.sum_scaled for row in table.rows) == pytest.approx(1.0)
        assert max(row.max_scaled for row in table.rows) == 1.0

    def test_csv_export(self, tmp_path):
        table = rates({"t": {"c1": 10}}, {"c1": 30})
        path = tmp_path / "rates.csv"
        write_rates_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("topic,community,count")
        assert len(lines) == 2
