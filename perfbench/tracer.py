"""Span tracer that wraps sentinet's public functions from outside the package.

Each traced function is replaced at every module attribute that refers to
it, so call sites that imported it by name (``pipeline`` imports
``normalize_text``, ``lsa`` imports ``intercluster_similarity``) are traced
too. A call records a span (name, start, end, parent). Functions called tens
of thousands of times per job are aggregated into a call count and a total
time instead; their time still counts as covered time of the enclosing span.
Spans stay in memory until the job ends.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

# layer (sentinet module) -> functions recorded as spans
SPAN_FUNCTIONS = {
    "pipeline": ("run_pipeline",),
    "cli": ("main",),
    "ingest": ("read_corpus", "write_corpus"),
    "graph": ("read_edges", "write_edges", "build_retweet_graph", "largest_component"),
    "community": ("louvain", "modularity", "read_partition", "write_partition"),
    "sentinel": ("select_sentinels", "activity", "read_roster", "write_roster"),
    "domains": (
        "domain_frequency_matrix",
        "first_principal_component",
        "read_matrix_csv",
        "write_matrix_csv",
        "write_scores_csv",
        "write_loadings_csv",
    ),
    "topics": ("filter_topic_tree", "rate_table", "write_rates_csv", "write_daily_csv"),
    "similarity": (
        "build_community_day_docs",
        "similarity_series",
        "flag_days",
        "adf_test",
        "read_series_csv",
        "write_series_csv",
    ),
    "lsa": ("lsa_topical_tweets", "truncated_svd", "confirm_drivers"),
}
# hot leaf functions: call count and total time only
AGGREGATED_FUNCTIONS = {"ingest": ("normalize_text",), "similarity": ("cosine_similarity",)}
ROOT_SPANS = ("pipeline.run_pipeline", "cli.main")


# span name -> (count name, function of the return value); counts add up
COUNT_HOOKS = {
    "ingest.read_corpus": ("ingest.records", lambda r: len(r.records)),
    "topics.filter_topic_tree": ("topics.matched", lambda r: len(r["covid"])),
    "lsa.lsa_topical_tweets": ("lsa.topical_tweets", lambda r: len(r.topical_ids)),
    "lsa.confirm_drivers": ("lsa.confirmed", lambda r: int(r.is_driver)),
    "community.louvain": ("community.communities", lambda r: len(r.communities)),
}
# spans returning a graph; graph.arcs keeps the largest arc count among them
ARC_SPANS = ("graph.read_edges", "graph.build_retweet_graph", "graph.largest_component")
# functions only counted through their result, neither timed nor a span
PASSTHROUGH_COUNTS = {
    ("community", "louvain_phase_partitions"): ("community.phases", len),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    aggregated_child_s: float = 0.0  # time of aggregated calls made directly inside


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    totals: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)

    def span_wrapper(self, name, func):
        hook = COUNT_HOOKS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, time.perf_counter(), parent=parent))
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = time.perf_counter()
                self.calls[name] += 1
            if hook is not None:
                self.counts[hook[0]] += hook[1](result)
            if name in ARC_SPANS:
                self.counts["graph.arcs"] = max(self.counts["graph.arcs"], len(result.arcs))
            return result

        return traced

    def aggregate_wrapper(self, name, func):
        def aggregated(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.calls[name] += 1
                self.totals[name] += elapsed
                if self._stack:
                    self.spans[self._stack[-1]].aggregated_child_s += elapsed

        return aggregated

    def count_wrapper(self, count_name, measure, func):
        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            self.counts[count_name] += measure(result)
            return result

        return counted

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]


def _sentinet_modules():
    import sentinet

    return {
        info.name: importlib.import_module(f"sentinet.{info.name}")
        for info in pkgutil.iter_modules(sentinet.__path__)
    }


@contextmanager
def installed(tracer: Tracer):
    """Wrap the traced functions at every import site; restore them on exit."""
    modules = _sentinet_modules()
    factories = {}
    for layer, names in SPAN_FUNCTIONS.items():
        for name in names:
            factories[layer, name] = partial(tracer.span_wrapper, f"{layer}.{name}")
    for layer, names in AGGREGATED_FUNCTIONS.items():
        for name in names:
            factories[layer, name] = partial(tracer.aggregate_wrapper, f"{layer}.{name}")
    for (layer, name), (count_name, measure) in PASSTHROUGH_COUNTS.items():
        factories[layer, name] = partial(tracer.count_wrapper, count_name, measure)
    replacements = {}  # id(original) -> (original, wrapper)
    for (layer, name), factory in factories.items():
        original = getattr(modules[layer], name)
        replacements[id(original)] = (original, factory(original))
    patched = []
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover.

    Aggregated calls made directly inside a span also count as covered.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered - span.aggregated_child_s)
    return result


# per-layer metric names reported for every job, in report order
SELF_TIME_METRICS = (
    "ingest.read_corpus",
    "ingest.write_corpus",
    "topics.filter_topic_tree",
    "topics.rate_table",
    "similarity.build_community_day_docs",
    "similarity.similarity_series",
    "similarity.flag_days",
    "similarity.adf_test",
    "lsa.lsa_topical_tweets",
    "lsa.truncated_svd",
    "lsa.confirm_drivers",
    "graph.read_edges",
    "graph.build_retweet_graph",
    "graph.largest_component",
    "community.louvain",
    "community.modularity",
    "sentinel.select_sentinels",
    "sentinel.activity",
    "domains.domain_frequency_matrix",
    "domains.first_principal_component",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times, call counts and work counts of one traced job."""
    own = self_times(tracer.spans)
    by_name: dict[str, float] = defaultdict(float)
    for span, seconds in zip(tracer.spans, own):
        by_name[span.name] += seconds
    metrics = {f"{name}.s": by_name[name] for name in SELF_TIME_METRICS}
    metrics["ingest.normalize_text.s"] = tracer.totals["ingest.normalize_text"]
    metrics["ingest.normalize_text.calls"] = tracer.calls["ingest.normalize_text"]
    metrics["similarity.cosine_similarity.s"] = tracer.totals["similarity.cosine_similarity"]
    metrics["similarity.cosine_similarity.calls"] = tracer.calls["similarity.cosine_similarity"]
    metrics["lsa.lsa_topical_tweets.calls"] = tracer.calls["lsa.lsa_topical_tweets"]
    counts = tracer.counts
    metrics["ingest.records"] = counts["ingest.records"]
    metrics["topics.matched"] = counts["topics.matched"]
    metrics["ingest.tokenize_per_tweet"] = _ratio(
        tracer.calls["ingest.normalize_text"], counts["topics.matched"]
    )
    metrics["lsa.topical_tweets"] = counts["lsa.topical_tweets"]
    metrics["lsa.confirmed_per_flag"] = _ratio(
        counts["lsa.confirmed"], tracer.calls["lsa.confirm_drivers"]
    )
    metrics["graph.arcs"] = counts["graph.arcs"]
    metrics["community.phases"] = counts["community.phases"]
    metrics["community.communities"] = counts["community.communities"]
    metrics["pipeline.glue.s"] = sum(by_name[name] for name in ROOT_SPANS)
    metrics["pipeline.artifact_read.s"] = sum(
        seconds for name, seconds in by_name.items() if name.split(".")[1].startswith("read_")
    )
    metrics["pipeline.artifact_write.s"] = sum(
        seconds for name, seconds in by_name.items() if name.split(".")[1].startswith("write_")
    )
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
