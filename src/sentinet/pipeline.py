"""End-to-end staged pipeline with fingerprinted, resumable on-disk artifacts.

The pipeline is the table :data:`STAGES`, in run order: ingest, graph,
component, communities, sentinels, domains, cluster, topics, rates,
similarity, adf, lsa, stats, meta. Each stage declares the config fields it
reads, the upstream stages whose values it takes, a pure ``build``, the
``write`` that persists its artifacts and, where the artifacts can be read
back, a ``load``. The CLI's stage subcommands are generated from the same
rows and resolve their inputs through the same runner, ``_Runner``: an
upstream value is loaded from a file option or built from its own inputs.

A stage's fingerprint is a 32-byte BLAKE2b of its name, a digest of the
package's own modules and data files (so a code change rebuilds every
stage), the values of the config fields it reads (external input files by
content, never by path) and its upstream fingerprints. BLAKE2b comes from
CPython's builtin ``_blake2``, since ``import hashlib`` loads OpenSSL's
libcrypto, about 3.6 MB of every run's peak memory. ``manifest.json`` in
the output directory records the fingerprint of every stage whose
artifacts were written. A rerun rebuilds a stage when its fingerprint
differs from the recorded one or an artifact is missing, and leaves it
untouched otherwise; an up-to-date stage is loaded only when a rebuilt
stage needs its value. Artifacts are written atomically, and a stage's manifest entry
is dropped before its artifacts are replaced, so a crash never leaves
partial output that counts as done. Given a fixed seed, the artifact tree
is byte-stable across hash seeds and, as checked, at 1 and 2 BLAS threads.
Where LSA singular values tie exactly, or a gap ratio equals
``lsa.MIN_GAP_RATIO`` exactly, selection follows the Lanczos run's basis:
fixed per matrix, but it can change with the row or column order (so with
the corpus's line order), and tied disjoint blocks may then share a vector.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
from datetime import date, timedelta
from functools import cache, partial
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from typing import Any, NamedTuple

import numpy as np

from . import community as community_mod
from . import domains as domains_mod
from . import graph as graph_mod
from . import lsa as lsa_mod
from . import similarity as similarity_mod
from . import topics as topics_mod
from .config import INPUT_FIELDS, PipelineConfig, validate_config
from .errors import SentinetError, StageError
from .fileio import write_json, write_lines
from .ingest import (
    EPOCH,
    PACKAGED,
    Corpus,
    ParseResult,
    TrigramEncoder,
    day_number,
    load_wordlist,
    normalize_text,
    read_corpus,
)
from .sentinel import (
    Roster,
    activity,
    ascii_language_filter,
    read_roster,
    select_sentinels,
    write_roster,
)

MANIFEST = "manifest.json"

try:
    # hashlib.blake2b is this class; importing it from hashlib would load
    # OpenSSL's libcrypto, the largest import of a run after numpy
    from _blake2 import blake2b

    _hasher = partial(blake2b, digest_size=32)
except ImportError:  # a CPython built without _blake2
    from hashlib import sha256 as _hasher


class Stage(NamedTuple):
    """One row of the stage table.

    ``build(params, *upstream_values)`` computes the stage's value from
    ``params`` (a namespace holding exactly the config fields in ``reads``)
    and the values of the ``upstream`` stages, and does no artifact I/O.
    ``write(value, paths, params)`` persists the value to ``files``;
    ``load(paths)``, where set, reads the value back. A build returning None
    marks an optional stage with nothing to do.
    """

    name: str
    files: tuple[str, ...]
    reads: tuple[str, ...]
    upstream: tuple[str, ...]
    build: Callable[..., Any]
    write: Callable[[Any, list[Path], SimpleNamespace], None]
    load: Callable[[list[Path]], Any] | None = None


# ---- builds -------------------------------------------------------------


def _build_ingest(params) -> ParseResult:
    parsed = read_corpus(params.corpus)
    if params.window_start is None:  # a stage subcommand keeps every record
        return parsed
    return ParseResult(
        records=parsed.records.within(params.window_start, params.window_end),
        skipped=parsed.skipped,
    )


def _build_communities(params, component) -> community_mod.Partition:
    detected = community_mod.louvain(component, seed=params.seed)
    # string labels keep fresh and resumed runs byte-identical
    return community_mod.Partition.from_assignment(
        {node: str(label) for node, label in detected.assignment.items()}
    )


def _build_sentinels(params, component, partition, ingest) -> Roster:
    predicate = None
    if params.language_filter == "ascii":
        predicate = ascii_language_filter(
            ingest.records, english_threshold=params.english_threshold, seed=params.seed
        )
    return select_sentinels(
        component,
        partition,
        k=params.sentinel_k,
        top_m=params.top_m,
        language_filter=predicate,
    )


def _build_domains(params, sentinels, ingest) -> domains_mod.DomainMatrix:
    corpus = ingest.records
    rows_by_community = _rows_by_community(sentinels, corpus)
    # the CLI may leave the split unset and use every record
    if params.split is not None:
        before = corpus.seconds < (params.split - EPOCH).total_seconds()
        rows_by_community = {
            label: rows[before[rows]] for label, rows in rows_by_community.items()
        }
    return domains_mod.domain_frequency_matrix(
        corpus,
        rows_by_community,
        load_wordlist(params.shorteners),
        min_count=params.domain_min_count,
    )


def _build_cluster(params, matrix):
    scores = domains_mod.first_principal_component(
        matrix, anchor_domain=params.anchor_domain
    )
    clusters = domains_mod.cluster_scores(scores.scores, k=params.score_clusters)
    return scores, clusters


def _build_topics(params, sentinels, ingest) -> dict:
    """Community -> topic -> rows of the community's sentinels' matching tweets."""
    lexicons = topics_mod.load_lexicons(params.lexicon_dir)
    corpus = ingest.records
    return {
        community: topics_mod.filter_topic_tree(corpus, rows, lexicons)
        for community, rows in _rows_by_community(sentinels, corpus).items()
    }


def _build_rates(params, sentinels, cluster, topics, ingest) -> topics_mod.RateTable:
    _, cluster_of = cluster
    corpus = ingest.records
    days = _window_days(params.window_start, params.window_end)
    last_active = activity(
        corpus,
        [account for entries in sentinels.values() for account, _ in entries],
        (params.window_start, params.window_end),
    )
    ends = np.cumsum([len(entries) for entries in sentinels.values()], dtype=int)
    first = day_number(params.window_start)
    counts: dict[str, dict[str, int]] = {}
    account_days: dict[str, int] = {}
    # per cluster: how many accounts were last active on each window day
    # (entry 0: before the window, or never), and each topic's tweets per day
    last_days: dict[str, np.ndarray] = {}
    daily_counts: dict[str, dict[str, np.ndarray]] = {}
    for label, mine in zip(sentinels, np.split(last_active, ends[:-1])):
        key = str(cluster_of[label])
        account_days[label] = int(mine.sum()) + mine.size
        last_days[key] = last_days.get(key, 0) + np.bincount(mine + 1, minlength=len(days) + 1)
        for topic, rows in topics[label].items():
            counts.setdefault(topic, {})[label] = len(rows)
            # every ingested row lies in the window: its day offset indexes the days
            tweets = np.bincount(corpus.days[rows] - first, minlength=len(days))
            per_cluster = daily_counts.setdefault(topic, {})
            per_cluster[key] = per_cluster.get(key, 0) + tweets
    # an account is active on every window day up to its last one
    daily_active = {key: tally[:0:-1].cumsum()[::-1] for key, tally in last_days.items()}
    return topics_mod.rate_table(counts, account_days, days, daily_counts, daily_active)


def _build_similarity(params, topics, cluster, ingest) -> list[similarity_mod.SimilaritySeries]:
    _, cluster_of = cluster
    covid = {community: per_topic["covid"] for community, per_topic in topics.items()}
    day_docs = similarity_mod.build_community_day_docs(
        ingest.records, covid, TrigramEncoder(load_wordlist(params.stopwords))
    )
    days = _window_days(params.window_start, params.window_end)
    members = domains_mod.cluster_members(cluster_of)
    return [
        similarity_mod.similarity_series(
            day_docs, members[left], members[right], days, pair=(left, right)
        )
        for left, right in combinations(sorted(members), 2)
    ]


def _build_adf(params, series_list) -> list[str]:
    lines = []
    for series in series_list:
        valid = [v for v in series.values if v is not None]
        pair_name = f"{series.pair[0]}-{series.pair[1]}"
        try:
            result = similarity_mod.adf_test(valid, params.adf_alpha)
            lines.append(
                f"pair {pair_name}: statistic={result.statistic:.4f} "
                f"critical={result.critical_value:.2f} "
                f"alpha={result.alpha:g} nobs={result.nobs} -> {result.verdict}"
            )
        except SentinetError as exc:
            lines.append(f"pair {pair_name}: not testable ({exc})")
    return lines


def _build_lsa(params, series_list, topics, cluster, ingest) -> dict:
    _, cluster_of = cluster
    corpus = ingest.records
    members = domains_mod.cluster_members(cluster_of)
    flagged = [
        sorted(
            similarity_mod.flag_days(
                series, threshold=params.burst_threshold, min_history=params.min_history
            )
        )
        for series in series_list
    ]
    # only the covid tweets of flagged days are read: each is tokenized and
    # counted once, as one row of the stage's count matrix
    flagged_on = {day_number(day): day for days in flagged for day in days}
    wanted = np.array(sorted(flagged_on), dtype=np.int64)
    tweets: list[int] = []  # the matrix's rows, as rows of the corpus
    rows_of: dict[tuple[community_mod.Label, date], list[int]] = {}
    for community, per_topic in topics.items():
        covid = per_topic["covid"]
        days = corpus.days[covid]
        on_flagged = np.isin(days, wanted)
        for row, day in zip(covid[on_flagged].tolist(), days[on_flagged].tolist()):
            rows_of.setdefault((community, flagged_on[day]), []).append(len(tweets))
            tweets.append(row)
    counts, _ = TrigramEncoder(load_wordlist(params.stopwords)).count(
        map(normalize_text, corpus.texts.take(tweets))
    )
    # the ids are read many times over: decoded once, for the stage alone
    ids = list(corpus.tweet_ids.take(tweets))
    events = []
    # (cluster, day) -> its extraction; a day flagged in two pairs of one
    # cluster is extracted once
    extracted: dict[tuple[community_mod.Label, date], lsa_mod.TopicalExtraction] = {}
    for series, days in zip(series_list, flagged):
        for day in days:
            # per side, community -> its rows of the day, communities in label order
            rows = [{c: rows_of.get((c, day), []) for c in members[side]} for side in series.pair]
            for side, by_community in zip(series.pair, rows):
                if (side, day) not in extracted:
                    side_rows = [row for group in by_community.values() for row in group]
                    extracted[side, day] = lsa_mod.lsa_topical_tweets(
                        counts, ids, side_rows, k=params.lsa_k
                    )
            extractions = [extracted[side, day] for side in series.pair]
            confirmation = lsa_mod.confirm_drivers(
                series,
                day,
                counts,
                ids,
                *rows,
                *extractions,
                match_threshold=params.match_threshold,
                flag_threshold=params.burst_threshold,
                min_history=params.min_history,
            )
            left, right = series.pair
            events.append(
                {
                    "day": day.isoformat(),
                    "pair": f"{left}-{right}",
                    "burst_score": similarity_mod.burst_score(
                        series, day, params.min_history
                    ),
                    "topical": {
                        side: sorted(extraction.topical_ids)
                        for side, extraction in zip(series.pair, extractions)
                    },
                    "singular_values": {
                        side: list(extraction.singular_values)
                        for side, extraction in zip(series.pair, extractions)
                    },
                    "common": {
                        left: sorted(confirmation.common_a),
                        right: sorted(confirmation.common_b),
                    },
                    "recomputed_similarity": confirmation.recomputed_s,
                    "recomputed_burst_score": confirmation.recomputed_h,
                    "is_driver": confirmation.is_driver,
                }
            )
    return {
        "flag_threshold": params.burst_threshold,
        "min_history": params.min_history,
        "match_threshold": params.match_threshold,
        "events": events,
    }


def _build_stats(params) -> dict | None:
    if params.contingency is None and params.coding is None:
        return None
    # imported here: a run without stats inputs never loads it or fractions
    from . import stats as stats_mod

    payload: dict = {}
    if params.contingency is not None:
        result = stats_mod.chi_square(stats_mod.ContingencyTable.read_csv(params.contingency))
        payload["chi_square"] = {
            "statistic": result.statistic,
            "df": result.df,
            "p_value": result.p_value,
        }
    if params.coding is not None:
        matrix = stats_mod.CodingMatrix.read_csv(params.coding)
        payload["krippendorff_alpha"] = stats_mod.krippendorff_alpha(matrix)
    return payload


def _build_meta(params, ingest, component, partition, sentinels, cluster, drivers) -> dict:
    _, cluster_of = cluster
    return {
        "seed": params.seed,
        "sd_convention": similarity_mod.SD_CONVENTION,
        "burst_threshold": params.burst_threshold,
        "min_history": params.min_history,
        "summary": {
            "records": len(ingest.records),
            "skipped_lines": ingest.skipped,
            "nodes": component.n,
            "total_retweets": component.w,
            "communities": len(partition.communities),
            "sentinel_communities": len(sentinels),
            "sentinel_accounts": sum(len(v) for v in sentinels.values()),
            "clusters": len(set(cluster_of.values())),
            "flagged_events": len(drivers["events"]),
            "confirmed_drivers": sum(1 for event in drivers["events"] if event["is_driver"]),
        },
    }


# ---- writes and loads ---------------------------------------------------


def _write_cluster(cluster, paths, params) -> None:
    scores, clusters = cluster
    domains_mod.write_scores_csv(scores, clusters, paths[0])
    if paths[1] is not None:  # a stage subcommand's optional --loadings-output
        domains_mod.write_loadings_csv(scores, paths[1])


def _write_rates(table, paths, params) -> None:
    topics_mod.write_rates_csv(table, paths[0])
    if paths[1] is not None:  # a stage subcommand's optional --daily-output
        topics_mod.write_daily_csv(table, paths[1])


def _write_json(payload, paths, params) -> None:
    write_json(payload, paths[0])


def _load_json(paths):
    return json.loads(paths[0].read_text(encoding="utf-8"))


# Stage(name, files, reads, upstream, build, write, load), in run order.
# Lambdas look the module functions up at call time, so tools that patch
# them (profilers, tracers) see every call the pipeline makes.
_STAGE_ROWS = (
    # no load: the corpus is fingerprinted by content, so an up-to-date ingest
    # is parsed from it again rather than from a re-serialized copy
    Stage(
        "ingest", ("ingest_meta.json",), ("corpus", "window_start", "window_end"), (),
        _build_ingest,
        lambda parsed, paths, params: write_json(
            {"skipped_lines": parsed.skipped, "records": len(parsed.records)}, paths[0]
        ),
    ),
    Stage(
        "graph", ("graph.edges",), (), ("ingest",),
        lambda params, ingest: graph_mod.build_retweet_graph(ingest.records),
        lambda graph, paths, params: graph_mod.write_edges(graph, paths[0]),
        lambda paths: graph_mod.read_edges(paths[0]),
    ),
    Stage(
        "component", ("component.edges",), (), ("graph",),
        lambda params, graph: graph_mod.largest_component(graph),
        lambda graph, paths, params: graph_mod.write_edges(graph, paths[0]),
        lambda paths: graph_mod.read_edges(paths[0]),
    ),
    Stage(
        "communities", ("partition.txt",), ("seed",), ("component",),
        _build_communities,
        lambda partition, paths, params: community_mod.write_partition(partition, paths[0]),
        lambda paths: community_mod.read_partition(paths[0]),
    ),
    Stage(
        "sentinels", ("sentinels.txt",),
        ("sentinel_k", "top_m", "language_filter", "english_threshold", "seed"),
        ("component", "communities", "ingest"),
        _build_sentinels,
        lambda sentinels, paths, params: write_roster(sentinels, paths[0]),
        lambda paths: read_roster(paths[0]),
    ),
    Stage(
        "domains", ("domain_matrix.csv",),
        ("split", "domain_min_count", "shorteners"), ("sentinels", "ingest"),
        _build_domains,
        lambda matrix, paths, params: domains_mod.write_matrix_csv(matrix, paths[0]),
        lambda paths: domains_mod.read_matrix_csv(paths[0]),
    ),
    Stage(
        "cluster", ("domain_scores.csv", "domain_loadings.csv"),
        ("anchor_domain", "score_clusters"), ("domains",),
        _build_cluster, _write_cluster,
        lambda paths: domains_mod.read_scores_csv(paths[0]),
    ),
    Stage(
        "topics", ("topic_counts.csv",), ("lexicon_dir",), ("sentinels", "ingest"),
        _build_topics,
        lambda topics, paths, params: topics_mod.write_counts_csv(topics, paths[0]),
    ),
    Stage(
        "rates", ("rates.csv", "rates_daily.csv"),
        ("window_start", "window_end"), ("sentinels", "cluster", "topics", "ingest"),
        _build_rates,
        _write_rates,
    ),
    Stage(
        "similarity", ("similarity.csv",),
        ("window_start", "window_end", "stopwords", "burst_threshold", "min_history"),
        ("topics", "cluster", "ingest"),
        _build_similarity,
        lambda series_list, paths, params: similarity_mod.write_series_csv(
            series_list,
            paths[0],
            threshold=params.burst_threshold,
            min_history=params.min_history,
        ),
        lambda paths: similarity_mod.read_series_csv(paths[0]),
    ),
    Stage(
        "adf", ("adf.txt",), ("adf_alpha",), ("similarity",), _build_adf,
        lambda lines, paths, params: write_lines(paths[0], lines),
    ),
    Stage(
        "lsa", ("lsa_drivers.json",),
        ("lsa_k", "burst_threshold", "min_history", "match_threshold", "stopwords"),
        ("similarity", "topics", "cluster", "ingest"),
        _build_lsa, _write_json, _load_json,
    ),
    Stage(
        "stats", ("stats.json",), ("contingency", "coding"), (),
        _build_stats, _write_json, _load_json,
    ),
    Stage(
        "meta", ("run_meta.json",), ("seed", "burst_threshold", "min_history"),
        ("ingest", "component", "communities", "sentinels", "cluster", "lsa"),
        _build_meta, _write_json, _load_json,
    ),
)
STAGES: dict[str, Stage] = {stage.name: stage for stage in _STAGE_ROWS}
ARTIFACTS = {name: stage.files for name, stage in STAGES.items()}


# ---- runner -------------------------------------------------------------


def run_pipeline(config: PipelineConfig) -> dict:
    """Bring every stage's artifacts in ``config.output_dir`` up to date.

    Returns the run's summary, as ``run_meta.json`` records it.

    Raises :class:`ConfigError` for an invalid config before any stage runs.
    """
    validate_config(config)
    return _Runner(config).run()


class _Runner:
    """Resolves and writes stage values. The CLI overrides the hooks: where a
    stage's files are, its params, whether an upstream value is loaded rather
    than built, and how a failure is reported.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out = Path(config.output_dir)
        self.values: dict[str, Any] = {}

    def paths(self, stage: Stage) -> list[Path]:
        return [self.out / name for name in stage.files]

    def params(self, stage: Stage) -> SimpleNamespace:
        return _params(self.config, stage.reads)

    def loads(self, stage: Stage) -> bool:
        return stage.load is not None

    def errors(self, stage: Stage):
        return _stage_errors(stage, self.out)

    def build(self, stage: Stage, params: SimpleNamespace):
        return stage.build(params, *map(self.value, stage.upstream))

    def value(self, name: str):
        """An upstream stage's value: loaded, or built without writing."""
        if name not in self.values:
            stage = STAGES[name]
            with self.errors(stage):
                if self.loads(stage):
                    self.values[name] = stage.load(self.paths(stage))
                else:
                    self.values[name] = self.build(stage, self.params(stage))
        return self.values[name]

    def run(self) -> dict:
        self.out.mkdir(parents=True, exist_ok=True)
        manifest_path = self.out / MANIFEST
        manifest = _read_manifest(manifest_path)
        fingerprints: dict[str, str] = {}
        for stage in STAGES.values():
            params = self.params(stage)
            fingerprint = fingerprints[stage.name] = _fingerprint(
                stage, params, [fingerprints[name] for name in stage.upstream]
            )
            paths = self.paths(stage)
            if manifest.get(stage.name) == fingerprint and all(p.exists() for p in paths):
                continue
            if manifest.pop(stage.name, None) is not None:
                write_json(manifest, manifest_path)  # the old artifacts stop counting as done
            with self.errors(stage):
                result = self.values[stage.name] = self.build(stage, params)
                if result is None:
                    for path in paths:
                        path.unlink(missing_ok=True)
                    continue
                stage.write(result, paths, params)
            manifest[stage.name] = fingerprint
            write_json(manifest, manifest_path)
        return self.value("meta")["summary"]


@contextmanager
def _stage_errors(stage: Stage, out: Path):
    """Re-raise a failure inside ``stage`` as a StageError naming its artifact."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage.name, str(out / stage.files[0]), exc) from exc


def _read_manifest(path: Path) -> dict:
    """The recorded fingerprints; a missing manifest, or one that is no JSON object, is empty."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return {}
    return manifest if isinstance(manifest, dict) else {}


def _params(config: PipelineConfig, names: Iterable[str]) -> SimpleNamespace:
    values = {name: getattr(config, name) for name in names}
    return SimpleNamespace(
        **{name: PACKAGED.get(name) if v is None else v for name, v in values.items()}
    )


def _fingerprint(stage: Stage, params: SimpleNamespace, upstream: Sequence[str]) -> str:
    digest = _hasher(stage.name.encode())
    digest.update(f"\ncode={_code_digest()}".encode())
    for name in stage.reads:
        v = getattr(params, name)
        rendered = _content_hash(Path(v)) if name in INPUT_FIELDS and v is not None else repr(v)
        digest.update(f"\n{name}={rendered}".encode())
    for fingerprint in upstream:
        digest.update(f"\n{fingerprint}".encode())
    return digest.hexdigest()


@cache
def _code_digest() -> str:
    """Digest of the package's modules and packaged data, by name and content."""
    package = Path(__file__).parent
    files = [*package.glob("*.py"), *(package / "data").rglob("*")]
    listing = "".join(
        f"{name.as_posix()}:{_content_hash(package / name)}\n"
        for name in sorted(path.relative_to(package) for path in files if path.is_file())
        if "__pycache__" not in name.parts
    )
    return _hasher(listing.encode()).hexdigest()


def _content_hash(path: Path) -> str:
    """Digest of a file's bytes; for a directory, of its files' names and digests."""
    if path.is_dir():
        listing = "".join(
            f"{child.name}:{_content_hash(child)}\n"
            for child in sorted(path.iterdir())
            if child.is_file()
        )
        return _hasher(listing.encode()).hexdigest()
    digest = _hasher()
    with open(path, "rb") as handle:
        for chunk in iter(partial(handle.read, 1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---- helpers ------------------------------------------------------------


def _rows_by_community(roster: Roster, corpus: Corpus) -> dict[str, np.ndarray]:
    """Rows of each community's sentinels, in corpus order.

    One lookup array maps each account of the corpus to its community's
    position in the roster, and one stable sort of the rows by it groups them.
    """
    labels = list(roster)
    community_of = np.full(len(corpus.accounts), -1)
    index = corpus.account_index
    for position, label in enumerate(labels):
        for account, _ in roster[label]:
            if account in index:
                community_of[index[account]] = position
    row_community = community_of[corpus.author]
    order = np.argsort(row_community, kind="stable")
    bounds = np.searchsorted(row_community[order], np.arange(len(labels) + 1)).tolist()
    return {label: order[bounds[i] : bounds[i + 1]] for i, label in enumerate(labels)}


def _window_days(start: date, end: date) -> list[date]:
    return [start + timedelta(days=i) for i in range((end - start).days + 1)]
