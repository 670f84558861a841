import csv
import errno
import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import corpus_of, make_record, rows_of
from oracles import matches_topic
from sentinet import lsa as lsa_mod
from sentinet import pipeline as pipeline_mod
from sentinet import similarity as similarity_mod
from sentinet.config import PipelineConfig, write_config
from sentinet.errors import ConfigError, ParameterError, StageError
from sentinet.fileio import across_cpus
from sentinet.ingest import (
    PACKAGED,
    ParseResult,
    TrigramEncoder,
    normalize_text,
    read_corpus,
    write_corpus,
)
from sentinet.pipeline import ARTIFACTS, MANIFEST, run_pipeline
from sentinet.sentinel import read_roster
from sentinet.synthetic import SyntheticSpec
from sentinet.topics import load_lexicons, stratified_coding_sample


@pytest.fixture(scope="module")
def synthetic(default_corpus, tmp_path_factory):
    base = tmp_path_factory.mktemp("synthetic")
    records, truth = default_corpus
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
    summary = run_pipeline(config)
    return config, truth, summary


def artifact_bytes(out_dir: Path) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def rewrite_byte(path: Path, marker: bytes, byte: bytes) -> None:
    """Overwrite the first byte of ``marker`` in ``path`` in place; size and mtime stay."""
    stat = path.stat()
    at = path.read_bytes().index(marker)
    with open(path, "r+b") as handle:
        handle.seek(at)
        handle.write(byte)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)


def rerun_rebuilds(config: PipelineConfig) -> tuple[set[str], set[str]]:
    """Rerun over ``config.output_dir``: the stages whose fingerprint changed, the files rewritten."""
    workdir = Path(config.output_dir)
    past = 1_000_000_000_000_000_000
    for path in workdir.iterdir():
        os.utime(path, ns=(past, past))
    before = artifact_bytes(workdir)
    old_manifest = json.loads(before[MANIFEST])
    run_pipeline(config)
    new_manifest = json.loads((workdir / MANIFEST).read_text())
    assert new_manifest.keys() == old_manifest.keys()
    rewritten = {path.name for path in workdir.iterdir() if path.stat().st_mtime_ns != past}
    for name in before.keys() - rewritten:
        assert (workdir / name).read_bytes() == before[name], name
    changed = {stage for stage, fingerprint in old_manifest.items() if new_manifest[stage] != fingerprint}
    return changed, rewritten


# sha256 of SyntheticSpec() artifacts whose bytes use no LAPACK routine, so
# they hold across numpy builds (lsa_drivers.json, domain_scores.csv and
# domain_loadings.csv do not; domain_matrix.csv holds plain divisions)
PINNED_DIGESTS = {
    "similarity.csv": "b5ada86e12a3d0612419f2b406244de93727394bd584e26e9183f99e6ab4bb12",
    "topic_counts.csv": "ce2f11c548b2a1a5dbebc72dfc61dfba0bdeed03d94f02200418074a251e846a",
    "rates.csv": "804edbaea90e237a8fc40511faf16fe0970254a9d7e3b2b2f009966961f7b098",
    "rates_daily.csv": "31016ce6d2ef723ce6d25bfc3d8000ed772c547ec8bd6fa0fbed8866cf333ab7",
    "graph.edges": "d126e5b5cc602dcca89d8a311dbf44acda6af4c7edc07245b28b150be0c9f60b",
    "component.edges": "d126e5b5cc602dcca89d8a311dbf44acda6af4c7edc07245b28b150be0c9f60b",
    "partition.txt": "5d430fc76aa2d15ae71fc252dd71df2afb5f113f9e9b1acc826ba74d221da4c6",
    "sentinels.txt": "33ce936f2f9a71316dec79b8e9a4abef16eddc035ba825a4d38997a1152c44dd",
    "domain_matrix.csv": "4b8dd3d1de53c0ea939c27f7c25aaf02ff190fdc38bd91471396c7e35a238fc6",
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
        config, _, _ = synthetic
        for stage, files in ARTIFACTS.items():
            if stage == "stats":
                continue  # optional inputs not supplied
            for name in files:
                assert (config.output_dir / name).exists(), name

    def test_discovers_designed_structure(self, synthetic):
        _, truth, summary = synthetic
        assert summary["communities"] == len(truth.communities)
        assert summary["clusters"] == 3
        assert summary["sentinel_accounts"] == 9 * 15

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

    def test_ids_that_break_artifacts_are_skipped_fresh_and_on_resume(self, synthetic, tmp_path):
        config, truth, _ = synthetic
        hub = next(iter(truth.hubs.values()))[0]
        moment = f"{truth.window[0].isoformat()}T12:00:00Z"
        bad = [
            {"tweet_id": "x1", "author_id": "a b", "retweeted_author_id": hub},
            {"tweet_id": "x2", "author_id": "\ud800", "retweeted_author_id": hub},
            {"tweet_id": "x3", "author_id": hub, "retweeted_author_id": "x\ty"},
            {"tweet_id": "x 4", "author_id": hub, "retweeted_author_id": None},
        ]
        corpus = tmp_path / "corpus.jsonl"
        with open(corpus, "w", encoding="utf-8") as handle:
            handle.write(Path(config.corpus).read_text(encoding="utf-8"))
            for line in bad:
                line.update(created_at=moment, text="covid", urls=[])
                handle.write(json.dumps(line) + "\n")
        workdir = tmp_path / "out"
        dirty = replace(config, corpus=corpus, output_dir=workdir)
        run_pipeline(dirty)
        fresh = artifact_bytes(workdir)
        assert json.loads(fresh["ingest_meta.json"])["skipped_lines"] == len(bad)
        # every added line is skipped: only the skip count and fingerprints differ
        differ = ("ingest_meta.json", "run_meta.json", MANIFEST)
        expected = artifact_bytes(config.output_dir)
        assert {name: data for name, data in fresh.items() if name not in differ} == {
            name: data for name, data in expected.items() if name not in differ
        }
        # a resume parses the corpus again to rebuild the edge list
        (workdir / "graph.edges").unlink()
        run_pipeline(dirty)
        assert artifact_bytes(workdir) == fresh

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

        def counting(text):
            calls.append(text)
            return normalize_text(text)

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
            for record in rows_of(read_corpus(config.corpus).records)
            if record["author_id"] in sentinels
            and record["created_at"][:10] in flagged_days
            and matches_topic(record["text"], covid)
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
        summary = run_pipeline(replace(config, output_dir=workdir, corpus=moved_corpus))
        after = {path.name: path.stat() for path in workdir.iterdir()}
        assert after.keys() == before.keys()
        for name, stat in after.items():
            assert (stat.st_ino, stat.st_mtime_ns) == (
                before[name].st_ino,
                before[name].st_mtime_ns,
            ), name
        assert summary == json.loads((workdir / "run_meta.json").read_text())["summary"]

    def test_code_change_rebuilds_every_stage(self, synthetic, tmp_path, monkeypatch):
        config, _, _ = synthetic
        workdir = tmp_path / "code"
        shutil.copytree(config.output_dir, workdir)
        before = artifact_bytes(workdir)
        monkeypatch.setattr(pipeline_mod, "_code_digest", lambda: "0" * 64)
        changed, rewritten = rerun_rebuilds(replace(config, output_dir=workdir))
        assert changed == set(json.loads(before[MANIFEST]))
        assert rewritten == before.keys()
        after = artifact_bytes(workdir)
        del before[MANIFEST], after[MANIFEST]
        assert after == before

    def test_corpus_edit_of_one_byte_rebuilds_every_stage(self, synthetic, tmp_path):
        # input files are fingerprinted by content, not by size or mtime: the
        # copy keeps the corpus's mtime, and the edit leaves every parsed
        # value as it was
        config, _, _ = synthetic
        workdir = tmp_path / "out"
        shutil.copytree(config.output_dir, workdir)
        corpus = tmp_path / "corpus.jsonl"
        shutil.copy2(config.corpus, corpus)
        rewrite_byte(corpus, b"covid", b"C")
        changed, rewritten = rerun_rebuilds(replace(config, output_dir=workdir, corpus=corpus))
        assert changed == set(json.loads((workdir / MANIFEST).read_text()))
        assert rewritten == {path.name for path in workdir.iterdir()}

    def test_lexicon_edit_of_one_byte_rebuilds_topics_and_downstream(self, synthetic, tmp_path):
        config, _, _ = synthetic
        workdir = tmp_path / "out"
        shutil.copytree(config.output_dir, workdir)
        lexicons = tmp_path / "lexicons"
        shutil.copytree(PACKAGED["lexicon_dir"], lexicons)
        rewrite_byte(lexicons / "facemasks.txt", b"Face", b"f")
        changed, rewritten = rerun_rebuilds(
            replace(config, output_dir=workdir, lexicon_dir=lexicons)
        )
        assert changed == {"topics", "rates", "similarity", "adf", "lsa", "meta"}
        upstream = ("ingest", "graph", "component", "communities", "sentinels", "domains", "cluster")
        untouched = {name for stage in upstream for name in ARTIFACTS[stage]}
        assert rewritten == {path.name for path in workdir.iterdir()} - untouched

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

    @pytest.mark.parametrize(
        "invalid",
        [
            "naive-split",
            "zero-sentinel-k",
            "output-dir-is-a-file",
            "output-dir-under-a-file",
            "output-dir-is-a-dangling-link",
        ],
    )
    def test_invalid_config_fails_before_any_stage(self, synthetic, tmp_path, invalid):
        config, _, _ = synthetic
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = tmp_path / "out"
        change = {
            "naive-split": {"split": config.split.replace(tzinfo=None)},
            "zero-sentinel-k": {"sentinel_k": 0},
            "output-dir-is-a-file": {"output_dir": blocker},
            "output-dir-under-a-file": {"output_dir": blocker / "out"},
            "output-dir-is-a-dangling-link": {"output_dir": tmp_path / "link"},
        }[invalid]
        (tmp_path / "link").symlink_to(tmp_path / "nowhere")
        with pytest.raises(ConfigError):
            run_pipeline(replace(config, **{"output_dir": out, **change}))
        assert not out.exists()
        assert blocker.read_text() == "kept"

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

    def test_artifacts_byte_identical_at_one_and_two_blas_threads(self, synthetic, tmp_path):
        # the lsa stage's SVD runs through BLAS, whose summation order may
        # follow its thread count
        config, _, _ = synthetic
        src = str(Path(pipeline_mod.__file__).resolve().parents[1])
        trees = []
        for threads in ("1", "2"):
            run_config = tmp_path / f"threads-{threads}.cfg"
            write_config(replace(config, output_dir=tmp_path / f"threads-{threads}"), run_config)
            subprocess.run(
                [sys.executable, "-m", "sentinet.cli", "run", "--config", str(run_config)],
                env={
                    **os.environ,
                    "PYTHONPATH": src,
                    "OPENBLAS_NUM_THREADS": threads,
                    "OMP_NUM_THREADS": threads,
                },
                capture_output=True,
                check=True,
            )
            trees.append(artifact_bytes(tmp_path / f"threads-{threads}"))
        assert trees[0] == trees[1]

    def test_run_meta_records_sd_convention(self, synthetic):
        config, _, _ = synthetic
        meta = json.loads((config.output_dir / "run_meta.json").read_text())
        assert meta["sd_convention"] == "population"
        assert meta["seed"] == 13


class TestAcrossCpus:
    @staticmethod
    def topic_and_day_builds(config, monkeypatch):
        """The topics value, the similarity build's day documents and its series,
        built from ``config``'s finished run."""
        built = []
        build_docs = similarity_mod.build_community_day_docs
        monkeypatch.setattr(
            similarity_mod,
            "build_community_day_docs",
            lambda *args: built.append(build_docs(*args)) or built[-1],
        )
        runner = pipeline_mod._Runner(config)
        similarity = pipeline_mod.STAGES["similarity"]
        series = runner.build(similarity, runner.params(similarity))
        return runner.value("topics"), built[0], series

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_builds_equal_those_of_one_cpu(self, synthetic, monkeypatch, cpus):
        # the default corpus is corpus-long-shaped: 30 days of 9 communities
        config, _, _ = synthetic
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        topics, docs, series = self.topic_and_day_builds(config, monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        spread_topics, spread_docs, spread_series = self.topic_and_day_builds(config, monkeypatch)
        # each of the two builds forked a child per further CPU
        assert len(forks) == 2 * (cpus - 1)
        assert list(spread_topics) == list(topics)
        for community, per_topic in topics.items():
            assert list(spread_topics[community]) == list(per_topic)
            for topic, rows in per_topic.items():
                assert np.array_equal(spread_topics[community][topic], rows)
        assert list(spread_docs) == list(docs) and len(docs) == 30
        for day, day_docs in docs.items():
            assert spread_docs[day].position == day_docs.position
            assert np.array_equal(spread_docs[day].gram, day_docs.gram)
        assert spread_series == series

    @pytest.mark.parametrize("affinity", [True, False], ids=["one-cpu", "no-affinity"])
    def test_one_cpu_forks_nothing(self, synthetic, monkeypatch, affinity):
        config, _, _ = synthetic
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:  # macOS and Windows have no affinity mask
            monkeypatch.delattr(os, "sched_getaffinity")

        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        topics, docs, series = self.topic_and_day_builds(config, monkeypatch)
        assert len(topics) == 9 and len(docs) == 30 and len(series) == 3

    @staticmethod
    def run_failing(monkeypatch, fail):
        """across_cpus over two items on two CPUs, where ``fail(in_child)`` runs
        on each item; the parent's item waits until the child has taken one."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()
        taken, taken_end = os.pipe()

        def function(item):
            in_child = os.getpid() != parent
            if in_child:
                os.write(taken_end, b"x")
            else:
                assert select.select([taken], [], [], 30)[0], "the child took no item"
            fail(in_child)
            return item

        try:
            return across_cpus(function, ["a", "b"], [1, 1])
        finally:
            os.close(taken)
            os.close(taken_end)

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_an_item_that_raises_raises_in_the_parent_and_leaves_no_child(
        self, monkeypatch, where
    ):
        def fail(in_child):
            if in_child == (where == "child"):
                raise ParameterError(f"bad item in the {where}")

        with pytest.raises(ParameterError, match=f"^bad item in the {where}$"):
            self.run_failing(monkeypatch, fail)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_child_that_ends_without_a_reply_names_its_exit_status(self, monkeypatch):
        def fail(in_child):
            if in_child:
                os._exit(3)

        with pytest.raises(ChildProcessError, match="exit status 3"):
            self.run_failing(monkeypatch, fail)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failed_fork_leaves_the_items_to_the_processes_running(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        forks, fork = [], os.fork

        def second_fork_fails():
            forks.append(1)
            if len(forks) > 1:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        descriptors = len(os.listdir("/proc/self/fd"))
        assert across_cpus(lambda item: 2 * item, list(range(9)), [1] * 9) == [
            2 * item for item in range(9)
        ]
        assert len(forks) == 2 and len(os.listdir("/proc/self/fd")) == descriptors
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_items_are_taken_heaviest_first(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        taken = []
        assert across_cpus(taken.append, "abcd", [2, 5, 2, 9]) == [None] * 4
        assert taken == ["d", "b", "a", "c"]

    def test_results_keep_the_item_order_past_one_queue(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        items = list(range(2500))
        assert across_cpus(lambda item: -item, items, [item % 7 for item in items]) == [
            -item for item in items
        ]


# imports the CLI and the pipeline, runs the pipeline on the default
# synthetic corpus in the directory argv[1], prints the random-number and
# stats modules then loaded and the hash modules, runs `sentinet stats` on
# the table and coding matrix there, and prints the scipy modules then loaded
RUN_PATH = """
import sys
from pathlib import Path

import sentinet.cli
from sentinet.config import PipelineConfig, write_config
from sentinet.ingest import write_corpus
from sentinet.pipeline import run_pipeline
from sentinet.synthetic import SyntheticSpec, generate_corpus

base = Path(sys.argv[1])
corpus, truth = generate_corpus(SyntheticSpec())
write_corpus(corpus, base / "corpus.jsonl")
run_pipeline(
    PipelineConfig(
        corpus=base / "corpus.jsonl",
        output_dir=base / "out",
        window_start=truth.window[0],
        window_end=truth.window[1],
        split=truth.split,
    )
)
print(sorted(
    m for m in sys.modules
    if m.startswith("numpy.random") or m in ("fractions", "decimal", "sentinet.stats")
))
print(sorted(m for m in sys.modules if m in ("hashlib", "_hashlib", "_blake2")))
assert sentinet.cli.main(
    ["stats", "--contingency", str(base / "table.csv"), "--coding", str(base / "coding.csv")]
) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print(sorted(
    f"{name}.{attr}"
    for name, module in list(sys.modules.items())
    if name.startswith("sentinet.")
    for attr, value in vars(module).items()
    if isinstance(value, type)
    and value.__module__ == name
    and hasattr(value, "__dataclass_fields__")
))
"""


@pytest.fixture(scope="module")
def run_path(tmp_path_factory):
    """The demo pipeline and the stats subcommand in one fresh interpreter: its output lines."""
    base = tmp_path_factory.mktemp("run-path")
    (base / "table.csv").write_text(
        "cluster,misinfo,no_misinfo\nleft,52,309\nright,325,57\nfar_right,360,48\n"
    )
    (base / "coding.csv").write_text("1,0,1,1\n1,0,1,\n1,0,,1\n")
    src = str(Path(pipeline_mod.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", RUN_PATH, str(base)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads((base / "out" / "lsa_drivers.json").read_text())["events"]
    return done.stdout.strip().splitlines()


class TestRunPath:
    def test_cli_and_pipeline_load_no_scipy(self, run_path):
        # numpy is the package's one run-time dependency: no module of it,
        # the chi-square p-value included, imports scipy
        _, _, chi, alpha, loaded, _ = run_path
        assert chi.startswith("chi-square: statistic=563.") and alpha.startswith("krippendorff")
        assert loaded == "[]"

    def test_run_without_stats_inputs_loads_no_random_or_stats(self, run_path):
        # numpy.random (with secrets, hmac and base64) and the stats code with
        # fractions and decimal cost every fresh process about 3 MB of peak
        # memory; the Lanczos start vector needs neither, and only a run
        # with a contingency or coding table calls stats
        assert run_path[0] == "[]"

    def test_run_loads_no_openssl(self, run_path):
        # hashlib loads OpenSSL's libcrypto, about 3.6 MB of every fresh
        # process's peak memory; the fingerprints take BLAKE2b from _blake2
        assert run_path[1] == "['_blake2']"

    def test_blake2b_is_hashlib_blake2b(self):
        import _blake2

        data = bytes(range(256)) * 5
        assert _blake2.blake2b(data, digest_size=32).digest() == hashlib.blake2b(
            data, digest_size=32
        ).digest()

    def test_three_classes_are_dataclasses(self, run_path):
        # each @dataclass generates and compiles its methods at import, which
        # every fresh process pays; the value records are NamedTuples, and
        # rosters and cluster maps are plain dicts
        assert run_path[-1] == str([
            "sentinet.config.PipelineConfig",
            "sentinet.ingest.Corpus",
            "sentinet.stats.CodingMatrix",
        ])


class TestStratifiedSample:
    def test_balanced_and_capped(self, record_factory):
        records = [record_factory(f"a{i}", "x", text="covid death rate") for i in range(80)] + [
            record_factory(f"b{i}", "y", text="covid death rate") for i in range(10)
        ]
        strata = {
            ("0", "mortality"): [("c0", row) for row in range(80)]
            + [("c1", row) for row in range(80, 90)],
        }
        corpus = corpus_of(records)
        rows = stratified_coding_sample(corpus, strata, per_stratum=40, seed=1)
        assert len(rows) == 40
        by_community = {}
        for _, _, community, _ in rows:
            by_community[community] = by_community.get(community, 0) + 1
        # the small community is fully used; the large one fills the rest
        assert by_community["c1"] == 10
        assert by_community["c0"] == 30

    def test_takes_all_when_short(self, record_factory):
        corpus = corpus_of(record_factory(f"a{i}", "x") for i in range(7))
        strata = {("0", "t"): [("c0", row) for row in range(7)]}
        rows = stratified_coding_sample(corpus, strata, per_stratum=100, seed=3)
        assert len(rows) == 7

    def test_deterministic(self, record_factory):
        corpus = corpus_of(record_factory(f"a{i}", "x") for i in range(50))
        strata = {("0", "t"): [("c0", row) for row in range(50)]}
        first = stratified_coding_sample(corpus, strata, per_stratum=10, seed=5)
        second = stratified_coding_sample(corpus, strata, per_stratum=10, seed=5)
        assert [r[3] for r in first] == [r[3] for r in second]


class TestRates:
    # a10 authors tweets but is no sentinel; ghost is a sentinel with no tweet
    ROSTER = {
        "c0": (("a0", 9), ("a1", 4)),
        "c1": (("a2", 7),),
        "c2": (("a3", 5), ("ghost", 1)),
    }
    CLUSTER_OF = {"c0": 0, "c1": 1, "c2": 0}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["a0", "a1", "a2", "a3", "a10"]), st.integers(0, 9)),
            min_size=1,
            max_size=40,
        ),
        st.integers(0, 9),
    )
    def test_equal_the_account_by_day_reference(self, tweets, start_offset):
        """Account days and daily tallies counted one account and one day at a time."""
        base = date(2020, 7, 1)
        # the window may start after some tweets: those accounts drop out early
        window = (base + timedelta(days=start_offset), base + timedelta(days=9))
        inside = [(author, day) for author, day in tweets if day >= start_offset]
        if not inside:
            return
        corpus = corpus_of(
            make_record(str(i), author, day_offset=day) for i, (author, day) in enumerate(inside)
        )
        rows_of_label = {
            label: np.array(
                [i for i, (author, _) in enumerate(inside) if author in dict(entries)], dtype=int
            )
            for label, entries in self.ROSTER.items()
        }
        topics = {label: {"all": rows, "even": rows[::2]} for label, rows in rows_of_label.items()}
        table = pipeline_mod.STAGES["rates"].build(
            SimpleNamespace(window_start=window[0], window_end=window[1]),
            self.ROSTER,
            (None, self.CLUSTER_OF),
            topics,
            ParseResult(records=corpus, skipped=0),
        )
        days = [window[0] + timedelta(days=i) for i in range((window[1] - window[0]).days + 1)]

        def active(account, day):
            return any(a == account and base + timedelta(days=d) >= day for a, d in inside)

        account_days = {
            label: sum(active(account, day) for account, _ in entries for day in days)
            for label, entries in self.ROSTER.items()
        }
        rows = {(row.topic, row.community): row for row in table.rows}
        for topic in ("all", "even"):
            for label in self.ROSTER:
                if account_days[label] == 0:
                    assert (topic, label) in table.excluded
                    continue
                row = rows[(topic, label)]
                assert row.active_account_days == account_days[label]
                assert row.per_capita == len(topics[label][topic]) / account_days[label]
            for cluster in ("0", "1"):
                labels = [label for label, c in self.CLUSTER_OF.items() if str(c) == cluster]
                expected = []
                for day in days:
                    count = sum(
                        1
                        for label in labels
                        for i in topics[label][topic].tolist()
                        if base + timedelta(days=inside[i][1]) == day
                    )
                    tally = sum(
                        active(account, day) for label in labels for account, _ in self.ROSTER[label]
                    )
                    expected.append((day, count * 15 / tally if tally else None))
                assert table.daily[(topic, cluster)] == tuple(expected)
