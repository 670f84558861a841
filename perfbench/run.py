#!/usr/bin/env python3
"""sentinet benchmark: time complete jobs on seeded workloads and check their outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus-long --seed 1 --seconds 45 --trace 0

Workloads:
  corpus-long      one fresh run_pipeline over a 28-day, 18-community corpus
  corpus-wide      one fresh run_pipeline over a 14-day, 48-community corpus
  resume           run_pipeline again over a completed output directory
  louvain-planted  `sentinet communities` on a planted-partition retweet digraph

Each job runs in a fresh worker process (perfbench/worker.py), one after
another (closed loop, one client), until --seconds have passed and at least
three jobs ran. With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 jobs alternate untraced and traced, and it carries
the per-layer metrics of the traced ones. End-to-end times are rescaled by
a host speed probe (hostspeed.py) timed just before and after each job.
Every job's output is checked; a failed check or an exception counts as a
failed job.
"""

from __future__ import annotations

import argparse
import os
import time

PROCESS_START = time.monotonic()
THREADS = "1"  # at most nproc; one thread keeps BLAS timings steady
for _name in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_name] = THREADS

import hashlib  # noqa: E402  (thread pinning must come before numpy loads)
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_BUDGET_S = 140  # no new job starts after this many seconds of the run
DEADLINE_S = 170  # a job still running this many seconds into the run is killed


@dataclass
class Job:
    index: int
    traced: bool
    seconds: float  # whole cycle: process start, job, checks
    probes: tuple[float, float] = (0.0, 0.0)  # hostspeed.kernel() times just before and after
    timed: bool = True  # False for a job that only prepares the workload
    result: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class FreshPipeline:
    """One fresh run_pipeline per job, each into a new output directory."""

    prepares = False  # whether the first job only prepares the workload

    def __init__(self, seed: int, work: Path, shape: str = "corpus-long"):
        from workloads import make_corpus

        self.work = work
        self.input = make_corpus(seed, work, shape)
        self.items = self.input.records
        self.jobs = itertools.count()
        self.parsed: set[str] = set()
        self.reference = None
        self.q_ratio_of: dict[str, float] = {}

    def describe(self) -> str:
        return (
            f"records={self.input.records} days={self.input.days} "
            f"communities={self.input.communities}"
        )

    def job(self) -> dict:
        return {
            "kind": "pipeline",
            "config": str(self.input.config_path),
            "output_dir": str(self.work / f"job{next(self.jobs)}"),
        }

    def check(self, job: dict) -> tuple[list[str], dict]:
        out = Path(job["output_dir"])
        try:
            return self._check_tree(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_tree(self, out: Path) -> tuple[list[str], dict]:
        from checks import check_artifacts, corpus_outcome, modularity_ratio, tree_digest
        from sentinet.community import read_partition
        from sentinet.graph import read_edges
        from sentinet.pipeline import ARTIFACTS

        digest = tree_digest(out)
        problems = check_artifacts(out, ARTIFACTS, digest, self.parsed)
        if problems:
            return problems, {}
        outcome = corpus_outcome(out, self.input.truth, self.input.viral_clusters)
        problems = outcome.problems
        key = (outcome.flagged, digest["partition.txt"])
        if self.reference is None:
            self.reference = key
        elif key != self.reference:
            problems.append("flagged events or partition differ from the first job's")
        if digest["partition.txt"] not in self.q_ratio_of:
            accounts = self.input.truth.accounts
            designed = {a: name for name, members in accounts.items() for a in members}
            self.q_ratio_of[digest["partition.txt"]] = modularity_ratio(
                read_edges(out / "component.edges"), read_partition(out / "partition.txt"), designed
            )
        quality = {
            "q_ratio": self.q_ratio_of[digest["partition.txt"]],
            "viral_confirmed": outcome.viral_confirmed,
        }
        return problems, quality


class Resume(FreshPipeline):
    """run_pipeline again over the completed output directory of a fresh run.

    The first job is that fresh run. It is checked like a corpus-long job but
    not timed, and its artifact tree is the reference that every resume job
    must leave byte-identical.
    """

    prepares = True

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.out = work / "fresh"
        self.fresh = None  # (artifact digest, quality) of the fresh run

    def job(self) -> dict:
        return {
            "kind": "pipeline",
            "config": str(self.input.config_path),
            "output_dir": str(self.out),
        }

    def check(self, job: dict) -> tuple[list[str], dict]:
        from checks import tree_digest

        if self.fresh is None:
            problems, quality = self._check_tree(self.out)
            if not problems:
                self.fresh = (tree_digest(self.out), quality)
            return problems, quality
        digest, quality = self.fresh
        if tree_digest(self.out) != digest:
            return ["artifact tree differs from the fresh run's"], {}
        return [], quality


class LouvainPlanted:
    """`sentinet communities --seed 13` on the run's planted-partition graph."""

    prepares = False

    def __init__(self, seed: int, work: Path):
        from sentinet.community import Partition, modularity
        from sentinet.graph import largest_component, read_edges
        from workloads import make_planted_graph

        self.work = work
        self.input = make_planted_graph(seed, work)
        self.items = self.input.arcs
        self.component = largest_component(read_edges(self.input.edges_path))
        planted = Partition.from_assignment(
            {node: self.input.planted[node] for node in self.component.nodes}
        )
        self.planted_q = modularity(self.component, planted)
        self.jobs = itertools.count()
        self.q_of: dict[str, float] = {}
        self.reference_q = None  # Q of the first partition found

    def describe(self) -> str:
        return (
            f"accounts={self.input.accounts} arcs={self.input.arcs} "
            f"communities={self.input.communities} component_nodes={self.component.n} "
            f"planted_q={self.planted_q:.6f}"
        )

    def job(self) -> dict:
        directory = self.work / f"job{next(self.jobs)}"
        directory.mkdir()
        return {
            "kind": "communities",
            "edges": str(self.input.edges_path),
            "output": str(directory / "partition.txt"),
        }

    def check(self, job: dict) -> tuple[list[str], dict]:
        from checks import check_partition
        from sentinet.community import modularity

        path = Path(job["output"])
        problems, partition = check_partition(path, self.component)
        if problems:
            return problems, {}
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest not in self.q_of:
            self.q_of[digest] = modularity(self.component, partition)
        q = self.q_of[digest]
        if self.reference_q is None:
            self.reference_q = q
        elif q != self.reference_q:
            problems.append(f"modularity {q!r} differs from the first job's {self.reference_q!r}")
        shutil.rmtree(path.parent, ignore_errors=True)
        return problems, {"q_ratio": q / self.planted_q}


WORKLOADS = {
    "corpus-long": FreshPipeline,
    "corpus-wide": partial(FreshPipeline, shape="corpus-wide"),
    "resume": Resume,
    "louvain-planted": LouvainPlanted,
}


def run_job(bench, index: int, traced: bool) -> Job:
    """Start one worker process, wait for it, and check what it wrote."""
    started = time.monotonic()
    host_before = hostspeed.kernel()
    spec = dict(bench.job(), trace=traced)
    spec["spawned_at"] = time.monotonic()
    job = Job(index=index, traced=traced, seconds=0.0)
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    timeout = DEADLINE_S - (time.monotonic() - PROCESS_START)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        job.problems.append(f"job {index} timed out after {timeout:.0f} s")
    else:
        job.probes = (host_before, hostspeed.kernel())
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            job.problems.append(f"job {index} exited with {proc.returncode}: {tail[0]}")
        else:
            try:
                job.result = json.loads(proc.stdout.strip().splitlines()[-1])
                job.problems, job.quality = bench.check(spec)
            except Exception as exc:  # output that cannot be read or checked fails the job
                job.problems.append(f"check of job {index} failed: {type(exc).__name__}: {exc}")
    job.seconds = time.monotonic() - started
    for problem in job.problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    return job


def measure(bench, seconds: int, trace: bool) -> list[Job]:
    prepared: list[Job] = []
    if bench.prepares:
        prepared.append(run_job(bench, 0, traced=False))
        prepared[0].timed = False
        if prepared[0].problems:
            return prepared
    min_jobs = 4 if trace else 3
    start = time.monotonic()
    jobs: list[Job] = []
    while True:
        job = run_job(bench, len(jobs), traced=trace and len(jobs) % 2 == 1)
        jobs.append(job)
        elapsed = time.monotonic() - start
        typical = statistics.median(j.seconds for j in jobs)
        if len(jobs) >= min_jobs and elapsed + typical > seconds:
            break
        if time.monotonic() - PROCESS_START > RUN_BUDGET_S:
            break
    return prepared + jobs


def median_of(jobs: list[Job], key: str, source: str = "result") -> float:
    return statistics.median(getattr(j, source)[key] for j in jobs)


def rescaled(jobs: list[Job], key: str) -> float:
    """Median of a job time rescaled to the reference host speed."""
    return statistics.median(
        j.result[key] * hostspeed.REFERENCE_S / statistics.mean(j.probes) for j in jobs
    )


def summarize(workload: str, bench, jobs: list[Job], trace: bool, design: dict) -> dict:
    good = [j for j in jobs if not j.problems and j.timed]
    plain = [j for j in good if not j.traced]
    traced = [j for j in good if j.traced]
    failed = sum(1 for j in jobs if j.problems)
    correct = failed == 0 and bool(plain) and (bool(traced) or not trace)
    metrics: dict[str, dict] = {}
    units = {m["name"]: m["unit"] for m in design["end_to_end"] + design["per_layer"]}
    print(f"# jobs attempted={len(jobs)} failed={failed} error_rate={failed / len(jobs):.4f}")
    if plain:
        wall = rescaled(plain, "wall_s")
        e2e = {
            "setup_s": rescaled(plain, "setup_s"),
            "wall_s": wall,
            "items_per_s": bench.items / wall,
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "q_ratio": median_of(plain, "q_ratio", "quality"),
        }
        print(
            f"# measured medians: setup_s={median_of(plain, 'setup_s'):.6f} "
            f"wall_s={median_of(plain, 'wall_s'):.6f} cpu_s={median_of(plain, 'cpu_s'):.6f} "
            f"host kernel={statistics.median(statistics.mean(j.probes) for j in plain):.6f} s "
            f"(reference {hostspeed.REFERENCE_S} s)"
        )
        walls = " ".join(f"{j.result['wall_s']:.3f}" for j in plain)
        print(f"# untraced jobs={len(plain)}, too few for a tail percentile; wall_s: {walls}")
        for name, value in e2e.items():
            print(f"{name:<40} {value:>14.6f} {units[name]}")
        if "viral_confirmed" in plain[0].quality:
            print(f"{'viral_confirmed':<40} {median_of(plain, 'viral_confirmed', 'quality'):>14.6f} count")
        if not trace:
            metrics = {
                m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in design["end_to_end"]
            }
    if trace and traced and plain:
        layers = {name: statistics.median(j.result["layers"][name] for j in traced)
                  for name in traced[0].result["layers"]}
        layers["lsa.viral_confirmed"] = statistics.median(
            j.quality.get("viral_confirmed", 0) for j in traced
        )
        layers["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        print(f"# traced jobs={len(traced)}")
        metrics = {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in design["per_layer"]
        }
        for name, metric in metrics.items():
            print(f"{name:<40} {metric['value']:>14.6f} {metric['unit']}")
        middle = sorted(traced, key=lambda j: j.result["wall_s"])[len(traced) // 2]
        (WORK / f"spans-{workload}.json").write_text(json.dumps(middle.result["spans"]))
    return {"correct": correct, "attempted": len(jobs), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SOURCE / "sentinet" / "pipeline.py").is_file():
        print(f"error: no sentinet sources under {SOURCE}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import numpy
    import scipy

    design = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = WORKLOADS[args.workload](args.seed, work)
        print(
            f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace} {bench.describe()}"
        )
        print(
            f"# nproc={os.cpu_count()} blas_threads={THREADS} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}"
        )
        jobs = measure(bench, args.seconds, bool(args.trace))
        report = summarize(args.workload, bench, jobs, bool(args.trace), design)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0 if report["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
