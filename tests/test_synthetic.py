import hashlib

from conftest import columns
from sentinet.ingest import day_date, write_corpus
from sentinet.synthetic import SyntheticSpec, VIRAL_TEXT, generate_corpus

# sha256 of the default spec's corpus as write_corpus writes it: 14,702 tweets
DEFAULT_CORPUS_SHA256 = "f8524fbc02d5f02643ea8469b40896ebbf12b15e6d593bf3b047a5beee8faef0"


class TestGenerateCorpus:
    def test_default_corpus_file_pinned(self, default_corpus, tmp_path):
        corpus, _ = default_corpus
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        assert len(corpus) == 14_702
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_CORPUS_SHA256

    def test_deterministic(self):
        first, _ = generate_corpus(SyntheticSpec())
        second, _ = generate_corpus(SyntheticSpec())
        assert columns(first) == columns(second)

    def test_seed_changes_corpus(self, default_corpus):
        base, _ = default_corpus
        other, _ = generate_corpus(SyntheticSpec(seed=99))
        assert columns(base) != columns(other)

    def test_ground_truth_shapes(self, default_corpus):
        corpus, truth = default_corpus
        assert len(truth.communities) == 9
        assert all(len(hubs) == 15 for hubs in truth.hubs.values())
        assert len(truth.viral_tweet_ids) == 2 * 3 * 15
        ids = set(corpus.tweet_ids)
        assert len(ids) == len(corpus)
        assert set(truth.viral_tweet_ids) <= ids

    def test_viral_copies_identical_and_on_viral_day(self, default_corpus):
        corpus, truth = default_corpus
        viral = set(truth.viral_tweet_ids)
        rows = [row for row, tweet_id in enumerate(corpus.tweet_ids) if tweet_id in viral]
        assert {corpus.texts[row] for row in rows} == {VIRAL_TEXT}
        assert {day_date(day) for day in corpus.days[rows].tolist()} == {truth.viral_day}

    def test_every_tweet_is_covid_related(self, default_corpus):
        corpus, _ = default_corpus
        assert all("covid" in text.lower() for text in corpus.texts)

    def test_window_covers_all_records(self, default_corpus):
        corpus, truth = default_corpus
        start, end = truth.window
        assert start <= day_date(int(corpus.days.min()))
        assert day_date(int(corpus.days.max())) <= end

    def test_sorted_by_time_then_id(self, default_corpus):
        corpus, _ = default_corpus
        keys = list(zip(corpus.seconds.tolist(), corpus.tweet_ids))
        assert keys == sorted(keys)
