#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that every workload prints exactly the metric names BENCHMARK.json
lists, that the output checks reject a truncated lsa_drivers.json and a
partition with a dropped node, and the self-time arithmetic of the tracer.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from sentinet.graph import largest_component, read_edges  # noqa: E402
from sentinet.pipeline import ARTIFACTS  # noqa: E402

TINY_CORPUS = {"n_days": 16, "communities_per_cluster": 2, "viral_day_index": 12, "split_day_index": 8}
TINY = {
    "CORPUS_SHAPES": {name: TINY_CORPUS for name in workloads.CORPUS_SHAPES},
    "PLANTED_ACCOUNTS": 1000,
    "PLANTED_COMMUNITIES": 10,
    "PLANTED_ARCS": 6000,
}


@contextlib.contextmanager
def tiny_workloads():
    saved = {name: getattr(workloads, name) for name in TINY}
    for name, value in TINY.items():
        setattr(workloads, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(workloads, name, value)


class MetricNames(unittest.TestCase):
    def test_each_workload_emits_the_listed_metrics(self):
        design = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = {
            0: [m["name"] for m in design["end_to_end"]],
            1: [m["name"] for m in design["per_layer"]],
        }
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace), tiny_workloads():
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        status = run.main(
                            ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace)]
                        )
                    report = json.loads(out.getvalue().strip().splitlines()[-1])
                    self.assertEqual(status, 0)
                    self.assertEqual(sorted(report), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(report["correct"], out.getvalue())
                    self.assertEqual(report["failed"], 0)
                    self.assertEqual(list(report["metrics"]), expected[trace])


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        with tiny_workloads():
            cls.corpus = workloads.make_corpus(5, cls.tmp, "corpus-long")
            cls.planted = workloads.make_planted_graph(5, cls.tmp)
        cls.out = cls.tmp / "out"
        job = {"kind": "pipeline", "config": str(cls.corpus.config_path),
               "output_dir": str(cls.out), "trace": False, "spawned_at": 0.0}
        import worker

        worker.main(job)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def artifact_problems(self, out: Path) -> list[str]:
        return checks.check_artifacts(out, ARTIFACTS, checks.tree_digest(out), set())

    def test_complete_tree_passes(self):
        self.assertEqual(self.artifact_problems(self.out), [])
        outcome = checks.corpus_outcome(self.out, self.corpus.truth, self.corpus.viral_clusters)
        self.assertEqual(outcome.problems, [])

    def test_truncated_lsa_drivers_is_rejected(self):
        damaged = self.tmp / "truncated"
        shutil.copytree(self.out, damaged)
        path = damaged / "lsa_drivers.json"
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        problems = self.artifact_problems(damaged)
        self.assertTrue(any("lsa_drivers.json" in p for p in problems), problems)

    def test_partition_with_dropped_node_is_rejected(self):
        component = largest_component(read_edges(self.planted.edges_path))
        path = self.tmp / "partition.txt"
        lines = [f"{node} {self.planted.planted[node]}\n" for node in sorted(component.nodes)]
        path.write_text("".join(lines))
        self.assertEqual(checks.check_partition(path, component)[0], [])
        path.write_text("".join(lines[1:]))
        problems, partition = checks.check_partition(path, component)
        self.assertIsNone(partition)
        self.assertIn("misses 1", problems[0])


class Rescaling(unittest.TestCase):
    def test_job_times_scale_with_the_probe_next_to_them(self):
        reference = run.hostspeed.REFERENCE_S
        jobs = [
            run.Job(index=i, traced=False, seconds=0.0, probes=probes, result={"wall_s": wall})
            for i, (wall, probes) in enumerate(
                [(2.0, (reference, reference)), (4.0, (reference, 3 * reference)), (9.0, (reference, reference))]
            )
        ]
        self.assertAlmostEqual(run.rescaled(jobs, "wall_s"), 2.0)


class SelfTime(unittest.TestCase):
    def test_hand_built_span_tree(self):
        spans = [
            tracer.Span("root", 0.0, 10.0),
            tracer.Span("a", 1.0, 4.0, parent=0, aggregated_child_s=0.5),
            tracer.Span("b", 3.5, 6.0, parent=0),  # overlaps a: covered once
            tracer.Span("a.child", 2.0, 3.0, parent=1),
        ]
        own = tracer.self_times(spans)
        for got, want in zip(own, [5.0, 1.5, 2.5, 1.0]):
            self.assertAlmostEqual(got, want)

    def test_wrappers_reach_every_import_site_and_are_removed(self):
        from datetime import date

        import sentinet.ingest
        import sentinet.lsa
        import sentinet.pipeline
        import sentinet.similarity

        original = sentinet.ingest.normalize_text
        doc = sentinet.similarity.CommunityDayDoc("c0", date(2020, 7, 1), {("a", "b", "c"): 1}, ())
        with tracer.installed(tracer.Tracer()) as active:
            self.assertIsNot(sentinet.pipeline.normalize_text, original)
            self.assertIs(sentinet.pipeline.normalize_text, sentinet.similarity.normalize_text)
            sentinet.pipeline.normalize_text("covid cases rise again today")
            # lsa imported intercluster_similarity by name; its cosine calls still count
            sentinet.lsa.intercluster_similarity([doc], [doc])
        self.assertEqual(active.calls["ingest.normalize_text"], 1)
        self.assertEqual(active.calls["similarity.cosine_similarity"], 1)
        self.assertIs(sentinet.pipeline.normalize_text, original)
        self.assertIs(sentinet.similarity.normalize_text, original)


if __name__ == "__main__":
    unittest.main()
