from sentinet.synthetic import SyntheticSpec, VIRAL_TEXT, generate_corpus


class TestGenerateCorpus:
    def test_deterministic(self):
        first, _ = generate_corpus(SyntheticSpec())
        second, _ = generate_corpus(SyntheticSpec())
        assert first == second

    def test_seed_changes_corpus(self):
        base, _ = generate_corpus(SyntheticSpec())
        other, _ = generate_corpus(SyntheticSpec(seed=99))
        assert base != other

    def test_ground_truth_shapes(self):
        records, truth = generate_corpus(SyntheticSpec())
        assert len(truth.communities) == 9
        assert all(len(hubs) == 15 for hubs in truth.hubs.values())
        assert len(truth.viral_tweet_ids) == 2 * 3 * 15
        ids = {record.tweet_id for record in records}
        assert len(ids) == len(records)
        assert set(truth.viral_tweet_ids) <= ids

    def test_viral_copies_identical_and_on_viral_day(self):
        records, truth = generate_corpus(SyntheticSpec())
        viral = [r for r in records if r.tweet_id in set(truth.viral_tweet_ids)]
        assert {r.text for r in viral} == {VIRAL_TEXT}
        assert {r.created_at.date() for r in viral} == {truth.viral_day}

    def test_every_tweet_is_covid_related(self):
        records, _ = generate_corpus(SyntheticSpec())
        assert all("covid" in record.text.lower() for record in records)

    def test_window_covers_all_records(self):
        records, truth = generate_corpus(SyntheticSpec())
        start, end = truth.window
        assert all(start <= record.created_at.date() <= end for record in records)
