"""Output checks of the benchmark jobs. Each returns a list of problems; empty means correct."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from sentinet.community import Partition, modularity, read_partition
from sentinet.domains import read_matrix_csv
from sentinet.graph import RetweetGraph, read_edges
from sentinet.ingest import read_corpus
from sentinet.sentinel import read_roster
from sentinet.similarity import read_series_csv
from sentinet.synthetic import GroundTruth


def tree_digest(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file under ``root``."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _parse_csv(path: Path) -> None:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("expected a header and rows of equal width")


def _parse_adf(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not all(line.startswith("pair ") for line in lines):
        raise ValueError("expected one 'pair ...' line per cluster pair")


_PARSERS = {
    "records.jsonl": read_corpus,
    "graph.edges": read_edges,
    "component.edges": read_edges,
    "partition.txt": read_partition,
    "sentinels.txt": read_roster,
    "domain_matrix.csv": read_matrix_csv,
    "similarity.csv": read_series_csv,
    "adf.txt": _parse_adf,
}


def _parse(path: Path) -> None:
    if path.suffix == ".json":
        json.loads(path.read_text(encoding="utf-8"))
    elif path.name in _PARSERS:
        _PARSERS[path.name](path)
    else:
        _parse_csv(path)


# stats.json is written only when a contingency or coding table is configured,
# and the benchmark configures neither
UNWRITTEN_STAGES = frozenset({"stats"})


def check_artifacts(
    out_dir: Path,
    artifacts: Mapping[str, tuple[str, ...]],
    digest: Mapping[str, str],
    parsed: set[str],
) -> list[str]:
    """Every artifact exists, is non-empty and parses.

    ``parsed`` holds the sha256 of files already parsed by an earlier job;
    such byte-identical files are not parsed again, and new ones are added.
    """
    problems = []
    for stage, names in artifacts.items():
        if stage in UNWRITTEN_STAGES:
            continue
        for name in names:
            path = out_dir / name
            if not path.is_file() or path.stat().st_size == 0:
                problems.append(f"{stage}: {name} missing or empty")
                continue
            if digest.get(name) in parsed:
                continue
            try:
                _parse(path)
            except Exception as exc:  # any parse failure is a failed check
                problems.append(f"{stage}: {name} does not parse ({type(exc).__name__}: {exc})")
                continue
            parsed.add(digest[name])
    return problems


@dataclass
class CorpusOutcome:
    flagged: frozenset[tuple[str, str]] = frozenset()  # (pair, day)
    viral_confirmed: int = 0
    problems: list[str] = field(default_factory=list)


def corpus_outcome(
    out_dir: Path, truth: GroundTruth, viral_clusters: tuple[int, ...]
) -> CorpusOutcome:
    """Flagged events, and whether the designed viral day is flagged and confirmed.

    ``viral_clusters`` are the generator's clusters whose hubs all post the
    viral text. Their communities are mapped to score clusters through the
    detected partition and domain_scores.csv, never by label number.
    """
    outcome = CorpusOutcome()
    with open(out_dir / "similarity.csv", newline="", encoding="utf-8") as handle:
        outcome.flagged = frozenset(
            (row["pair"], row["day"]) for row in csv.DictReader(handle) if row["flagged"] == "1"
        )
    partition = read_partition(out_dir / "partition.txt")
    with open(out_dir / "domain_scores.csv", newline="", encoding="utf-8") as handle:
        cluster_of = {row["community"]: row["cluster"] for row in csv.DictReader(handle)}
    viral_communities = [
        name
        for name in truth.communities
        if truth.cluster_of_community[name] in viral_clusters
    ]
    clusters = set()
    for name in viral_communities:
        for hub in truth.hubs[name]:
            label = partition.assignment.get(hub)
            if label not in cluster_of:
                outcome.problems.append(f"viral hub {hub} has no scored community")
                return outcome
            clusters.add(cluster_of[label])
    if len(clusters) != 2:
        outcome.problems.append(f"viral communities fall in clusters {sorted(clusters)}, not two")
        return outcome
    pair = "-".join(sorted(clusters))
    day = truth.viral_day.isoformat()
    if (pair, day) not in outcome.flagged:
        outcome.problems.append(f"designed viral day {day} not flagged on pair {pair}")
    events = json.loads((out_dir / "lsa_drivers.json").read_text(encoding="utf-8"))["events"]
    outcome.viral_confirmed = int(
        any(e["pair"] == pair and e["day"] == day and e["is_driver"] for e in events)
    )
    return outcome


def modularity_ratio(graph: RetweetGraph, found: Partition, planted: Mapping[str, str]) -> float:
    """Modularity of the found partition over that of the planted one, on ``graph``."""
    reference = Partition.from_assignment({node: planted[node] for node in graph.nodes})
    return modularity(graph, found) / modularity(graph, reference)


def check_partition(path: Path, graph: RetweetGraph) -> tuple[list[str], Partition | None]:
    """The partition parses and covers exactly the nodes of ``graph``."""
    try:
        partition = read_partition(path)
    except Exception as exc:  # any parse failure is a failed check
        return [f"partition does not parse ({type(exc).__name__}: {exc})"], None
    missing = len(graph.nodes - partition.nodes)
    extra = len(partition.nodes - graph.nodes)
    if missing or extra:
        return [f"partition misses {missing} and adds {extra} nodes of the component"], None
    return [], partition
