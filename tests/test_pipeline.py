import csv
import hashlib
import json
import os
import shutil
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import pytest

from sentinet import lsa as lsa_mod
from sentinet import pipeline as pipeline_mod
from sentinet.config import PipelineConfig
from sentinet.errors import ConfigError, StageError
from sentinet.ingest import TrigramEncoder, normalize_text, read_corpus, write_corpus
from sentinet.pipeline import ARTIFACTS, MANIFEST, run_pipeline
from sentinet.sentinel import read_roster
from sentinet.synthetic import SyntheticSpec, generate_corpus
from sentinet.topics import load_lexicons, matches_topic, stratified_coding_sample


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    base = tmp_path_factory.mktemp("synthetic")
    records, truth = generate_corpus(SyntheticSpec())
    corpus = base / "corpus.jsonl"
    write_corpus(records, corpus)
    config = PipelineConfig(
        corpus=corpus,
        output_dir=base / "out",
        window_start=truth.window[0],
        window_end=truth.window[1],
        split=truth.split,
        seed=13,
    )
    result = run_pipeline(config)
    return config, truth, result


def artifact_bytes(out_dir: Path) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


# sha256 of SyntheticSpec() artifacts whose bytes use no LAPACK routine, so
# they hold across numpy builds (lsa_drivers.json and domain_*.csv do not)
PINNED_DIGESTS = {
    "similarity.csv": "b5ada86e12a3d0612419f2b406244de93727394bd584e26e9183f99e6ab4bb12",
    "topic_counts.csv": "ce2f11c548b2a1a5dbebc72dfc61dfba0bdeed03d94f02200418074a251e846a",
    "rates.csv": "804edbaea90e237a8fc40511faf16fe0970254a9d7e3b2b2f009966961f7b098",
    "partition.txt": "5d430fc76aa2d15ae71fc252dd71df2afb5f113f9e9b1acc826ba74d221da4c6",
    "sentinels.txt": "33ce936f2f9a71316dec79b8e9a4abef16eddc035ba825a4d38997a1152c44dd",
}


class TestRunPipeline:
    def test_artifact_digests_pinned(self, synthetic):
        config, _, _ = synthetic
        digests = {
            name: hashlib.sha256((config.output_dir / name).read_bytes()).hexdigest()
            for name in PINNED_DIGESTS
        }
        assert digests == PINNED_DIGESTS

    def test_all_stage_artifacts_written(self, synthetic):
        config, _, result = synthetic
        for stage, files in ARTIFACTS.items():
            if stage == "stats":
                continue  # optional inputs not supplied
            for name in files:
                assert (config.output_dir / name).exists(), name

    def test_discovers_designed_structure(self, synthetic):
        _, truth, result = synthetic
        assert result.summary["communities"] == len(truth.communities)
        assert result.summary["clusters"] == 3
        assert result.summary["sentinel_accounts"] == 9 * 15

    def test_louvain_matches_designed_communities(self, synthetic):
        config, truth, _ = synthetic
        from sentinet.community import read_partition

        partition = read_partition(config.output_dir / "partition.txt")
        for name, members in truth.accounts.items():
            labels = {partition.assignment[account] for account in members}
            assert len(labels) == 1, f"designed community {name} split by louvain"

    def test_sentinels_are_designed_hubs(self, synthetic):
        config, truth, _ = synthetic
        from sentinet.sentinel import read_roster

        roster = read_roster(config.output_dir / "sentinels.txt")
        selected = {acct for entries in roster.values() for acct, _ in entries}
        designed = {hub for hubs in truth.hubs.values() for hub in hubs}
        assert selected == designed

    def test_flags_injected_day(self, synthetic):
        config, truth, _ = synthetic
        report = json.loads((config.output_dir / "lsa_drivers.json").read_text())
        flagged_days = {event["day"] for event in report["events"]}
        assert truth.viral_day.isoformat() in flagged_days
        extra = flagged_days - {truth.viral_day.isoformat()}
        assert len(extra) <= 1

    def test_viral_event_confirmed_as_driver(self, synthetic):
        config, truth, _ = synthetic
        report = json.loads((config.output_dir / "lsa_drivers.json").read_text())
        viral_events = [
            event
            for event in report["events"]
            if event["day"] == truth.viral_day.isoformat()
        ]
        assert viral_events
        for event in viral_events:
            assert event["is_driver"]
            assert (
                event["recomputed_burst_score"] is None
                or event["recomputed_burst_score"] < config.burst_threshold
            )
            topical = set().union(*map(set, event["topical"].values()))
            assert set(truth.viral_tweet_ids) & topical

    def test_rerun_is_byte_identical(self, synthetic, tmp_path):
        config, _, _ = synthetic
        first = artifact_bytes(config.output_dir)
        rerun_dir = tmp_path / "rerun"
        rerun_config = PipelineConfig(
            **{
                **{f: getattr(config, f) for f in config.__dataclass_fields__},
                "output_dir": rerun_dir,
            }
        )
        run_pipeline(rerun_config)
        second = artifact_bytes(rerun_dir)
        assert first == second

    def test_resume_rebuilds_deleted_artifacts_identically(self, synthetic, tmp_path):
        config, _, _ = synthetic
        workdir = tmp_path / "resume"
        shutil.copytree(config.output_dir, workdir)
        before = artifact_bytes(workdir)
        for name in ("similarity.csv", "adf.txt", "lsa_drivers.json", "run_meta.json"):
            (workdir / name).unlink()
        resumed = PipelineConfig(
            **{
                **{f: getattr(config, f) for f in config.__dataclass_fields__},
                "output_dir": workdir,
            }
        )
        run_pipeline(resumed)
        assert artifact_bytes(workdir) == before

    def test_config_change_rebuilds_stale_stages(self, synthetic, tmp_path):
        config, _, _ = synthetic
        workdir = tmp_path / "threshold"
        shutil.copytree(config.output_dir, workdir)
        run_pipeline(replace(config, output_dir=workdir, burst_threshold=50.0))
        report = json.loads((workdir / "lsa_drivers.json").read_text())
        assert report["flag_threshold"] == 50.0
        with open(workdir / "similarity.csv", newline="") as handle:
            flagged = {
                (row["pair"], row["day"])
                for row in csv.DictReader(handle)
                if row["flagged"] == "1"
            }
        assert {(event["pair"], event["day"]) for event in report["events"]} == flagged
        meta = json.loads((workdir / "run_meta.json").read_text())
        assert meta["burst_threshold"] == 50.0
        assert meta["summary"]["flagged_events"] == len(flagged)

    def test_lsa_tokenizes_only_flagged_days(self, synthetic, tmp_path, monkeypatch):
        config, _, _ = synthetic
        workdir = tmp_path / "tokenize"
        shutil.copytree(config.output_dir, workdir)
        calls = []

        def counting(text, stopwords=frozenset()):
            calls.append(text)
            return normalize_text(text, stopwords)

        # the lsa build is the only caller of pipeline.normalize_text
        monkeypatch.setattr(pipeline_mod, "normalize_text", counting)
        run_pipeline(replace(config, output_dir=workdir, burst_threshold=50.0))
        assert json.loads((workdir / "lsa_drivers.json").read_text())["events"] == []
        assert calls == []

        run_pipeline(replace(config, output_dir=workdir))
        report = json.loads((workdir / "lsa_drivers.json").read_text())
        flagged_days = {event["day"] for event in report["events"]}
        assert flagged_days
        sentinels = {
            account for entries in read_roster(workdir / "sentinels.txt").values()
            for account, _ in entries
        }
        covid = load_lexicons()["covid"]
        covid_on_flagged_days = sum(
            1
            for record in read_corpus(config.corpus).records
            if record.author_id in sentinels
            and record.day.isoformat() in flagged_days
            and matches_topic(record.text, covid)
        )
        assert 0 < len(calls) <= covid_on_flagged_days

    def test_lsa_extracts_each_cluster_day_once_from_shared_tokens(
        self, synthetic, tmp_path, monkeypatch
    ):
        config, _, _ = synthetic
        workdir = tmp_path / "extract"
        shutil.copytree(config.output_dir, workdir)
        extract = lsa_mod.lsa_topical_tweets
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return extract(*args, **kwargs)

        monkeypatch.setattr(lsa_mod, "lsa_topical_tweets", counting)
        run_pipeline(replace(config, output_dir=workdir, burst_threshold=1.0))
        events = json.loads((workdir / "lsa_drivers.json").read_text())["events"]
        cluster_days = {
            (side, event["day"]) for event in events for side in event["pair"].split("-")
        }
        # at this threshold one cluster's day is flagged in two pairs
        assert len(cluster_days) < 2 * len(events)
        assert len(calls) == len(cluster_days)

    def test_lsa_counts_its_tweets_once(self, synthetic, tmp_path, monkeypatch):
        config, _, _ = synthetic
        workdir = tmp_path / "count"
        shutil.copytree(config.output_dir, workdir)
        count = TrigramEncoder.count
        calls = []

        def counting(self, streams):
            calls.append(streams)
            return count(self, streams)

        monkeypatch.setattr(TrigramEncoder, "count", counting)
        # lsa_k is read by the lsa stage alone, so only lsa and meta rebuild
        run_pipeline(replace(config, output_dir=workdir, lsa_k=4))
        assert json.loads((workdir / "lsa_drivers.json").read_text())["events"]
        assert len(calls) == 1

    def test_unchanged_rerun_rewrites_nothing(self, synthetic, tmp_path):
        config, _, _ = synthetic
        workdir = tmp_path / "unchanged"
        shutil.copytree(config.output_dir, workdir)
        past = 1_000_000_000_000_000_000
        for path in workdir.iterdir():
            os.utime(path, ns=(past, past))
        before = {path.name: path.stat() for path in workdir.iterdir()}
        # input files are fingerprinted by content, so a moved copy changes nothing
        moved_corpus = tmp_path / "moved.jsonl"
        shutil.copyfile(config.corpus, moved_corpus)
        result = run_pipeline(replace(config, output_dir=workdir, corpus=moved_corpus))
        after = {path.name: path.stat() for path in workdir.iterdir()}
        assert after.keys() == before.keys()
        for name, stat in after.items():
            assert (stat.st_ino, stat.st_mtime_ns) == (
                before[name].st_ino,
                before[name].st_mtime_ns,
            ), name
        assert result.summary == json.loads((workdir / "run_meta.json").read_text())["summary"]

    def test_code_change_rebuilds_every_stage(self, synthetic, tmp_path, monkeypatch):
        config, _, _ = synthetic
        workdir = tmp_path / "code"
        shutil.copytree(config.output_dir, workdir)
        past = 1_000_000_000_000_000_000
        for path in workdir.iterdir():
            os.utime(path, ns=(past, past))
        before = artifact_bytes(workdir)
        old_manifest = json.loads((workdir / MANIFEST).read_text())
        monkeypatch.setattr(pipeline_mod, "_code_digest", lambda: "0" * 64)
        run_pipeline(replace(config, output_dir=workdir))
        new_manifest = json.loads((workdir / MANIFEST).read_text())
        assert new_manifest.keys() == old_manifest.keys()
        for stage, fingerprint in old_manifest.items():
            assert new_manifest[stage] != fingerprint, stage
        for path in workdir.iterdir():
            assert path.stat().st_mtime_ns != past, path.name
        after = artifact_bytes(workdir)
        del before[MANIFEST], after[MANIFEST]
        assert after == before

    def test_resume_rederives_ingest_from_the_corpus(self, synthetic, tmp_path, monkeypatch):
        config, _, _ = synthetic
        assert not (config.output_dir / "records.jsonl").exists()
        workdir = tmp_path / "lsa_k"
        shutil.copytree(config.output_dir, workdir)
        past = 1_000_000_000_000_000_000
        for path in workdir.iterdir():
            os.utime(path, ns=(past, past))
        before = {path.name: path.read_bytes() for path in workdir.iterdir()}
        parsed = []

        def recording(path):
            parsed.append(Path(path))
            return read_corpus(path)

        monkeypatch.setattr(pipeline_mod, "read_corpus", recording)
        run_pipeline(replace(config, output_dir=workdir, lsa_k=3))
        # run_meta needs the up-to-date ingest, which is parsed again from the corpus
        assert parsed == [Path(config.corpus)]
        assert sorted(path.name for path in workdir.iterdir()) == sorted(before)
        rebuilt = {"lsa_drivers.json", "run_meta.json", MANIFEST}
        for name in rebuilt:
            assert (workdir / name).stat().st_mtime_ns != past, name
        for name in before.keys() - rebuilt:
            path = workdir / name
            assert (path.read_bytes(), path.stat().st_mtime_ns) == (before[name], past), name

    def test_failed_rebuild_does_not_count_as_done(self, synthetic, tmp_path, monkeypatch):
        import sentinet.lsa

        config, _, _ = synthetic
        workdir = tmp_path / "crash"
        shutil.copytree(config.output_dir, workdir)
        changed = replace(config, output_dir=workdir, lsa_k=3)

        def crash(*args, **kwargs):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(sentinet.lsa, "lsa_topical_tweets", crash)
        with pytest.raises(StageError) as excinfo:
            run_pipeline(changed)
        assert excinfo.value.stage == "lsa"
        manifest = json.loads((workdir / "manifest.json").read_text())
        assert "lsa" not in manifest
        monkeypatch.undo()
        run_pipeline(changed)
        manifest = json.loads((workdir / "manifest.json").read_text())
        assert {"lsa", "meta"} <= manifest.keys()

    @pytest.mark.parametrize("invalid", ["naive-split", "zero-sentinel-k"])
    def test_invalid_config_fails_before_any_stage(self, synthetic, tmp_path, invalid):
        config, _, _ = synthetic
        change = {
            "naive-split": {"split": config.split.replace(tzinfo=None)},
            "zero-sentinel-k": {"sentinel_k": 0},
        }[invalid]
        out = tmp_path / "out"
        with pytest.raises(ConfigError):
            run_pipeline(replace(config, output_dir=out, **change))
        assert not (out / MANIFEST).exists()

    def test_empty_corpus_fails_at_ingest(self, tmp_path):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        start = SyntheticSpec().start
        config = PipelineConfig(
            corpus=corpus,
            output_dir=tmp_path / "out",
            window_start=start,
            window_end=start,
            split=datetime(start.year, start.month, start.day, tzinfo=timezone.utc),
        )
        with pytest.raises(StageError) as excinfo:
            run_pipeline(config)
        assert excinfo.value.stage == "ingest"

    def test_similarity_valid_on_all_days(self, synthetic):
        config, _, _ = synthetic
        import csv

        with open(config.output_dir / "similarity.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert all(row["valid"] == "1" for row in rows)

    def test_adf_report_written_per_pair(self, synthetic):
        config, _, _ = synthetic
        lines = (config.output_dir / "adf.txt").read_text().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("pair ") for line in lines)

    def test_run_meta_records_sd_convention(self, synthetic):
        config, _, _ = synthetic
        meta = json.loads((config.output_dir / "run_meta.json").read_text())
        assert meta["sd_convention"] == "population"
        assert meta["seed"] == 13


class TestStratifiedSample:
    def test_balanced_and_capped(self, record_factory):
        strata = {
            ("0", "mortality"): [
                ("c0", record_factory(f"a{i}", "x", text="covid death rate"))
                for i in range(80)
            ]
            + [
                ("c1", record_factory(f"b{i}", "y", text="covid death rate"))
                for i in range(10)
            ],
        }
        rows = stratified_coding_sample(strata, per_stratum=40, seed=1)
        assert len(rows) == 40
        by_community = {}
        for _, _, community, _ in rows:
            by_community[community] = by_community.get(community, 0) + 1
        # the small community is fully used; the large one fills the rest
        assert by_community["c1"] == 10
        assert by_community["c0"] == 30

    def test_takes_all_when_short(self, record_factory):
        strata = {
            ("0", "t"): [("c0", record_factory(f"a{i}", "x")) for i in range(7)]
        }
        rows = stratified_coding_sample(strata, per_stratum=100, seed=3)
        assert len(rows) == 7

    def test_deterministic(self, record_factory):
        strata = {
            ("0", "t"): [("c0", record_factory(f"a{i}", "x")) for i in range(50)]
        }
        first = stratified_coding_sample(strata, per_stratum=10, seed=5)
        second = stratified_coding_sample(strata, per_stratum=10, seed=5)
        assert [r[3].tweet_id for r in first] == [r[3].tweet_id for r in second]
