"""Command-line interface: stage subcommands plus the full pipeline runner."""

from __future__ import annotations

import argparse
import csv
import sys
from datetime import date
from pathlib import Path

from . import community as community_mod
from . import domains as domains_mod
from . import graph as graph_mod
from . import similarity as similarity_mod
from . import topics as topics_mod
from .config import load_config
from .domains import read_scores_csv
from .errors import SentinetError, StageError
from .fileio import atomic_open, write_json
from .ingest import data_path, parse_timestamp, read_corpus, write_corpus
from .pipeline import STAGES, run_pipeline, stratified_coding_sample
from .sentinel import read_roster, write_roster


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SentinetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentinet",
        description="Retweet-network sentinel monitoring pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a JSONL corpus into canonical form")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("graph", help="build the retweet graph edge list")
    p.add_argument("--records", dest="corpus", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.set_defaults(handler=cmd_graph)

    p = sub.add_parser("communities", help="Louvain communities of the largest component")
    p.add_argument("--edges", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--seed", type=int, default=13)
    p.set_defaults(handler=cmd_communities)

    p = sub.add_parser("compare-partitions", help="Rand index and z-Rand of two partitions")
    p.add_argument("--left", required=True, type=Path)
    p.add_argument("--right", required=True, type=Path)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("sentinels", help="select most-retweeted accounts per community")
    p.add_argument("--edges", required=True, type=Path)
    p.add_argument("--partition", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--k", dest="sentinel_k", type=int, default=15)
    p.add_argument("--top-m", type=int, default=50)
    p.add_argument(
        "--records", dest="corpus", type=Path, help="corpus for the language filter"
    )
    p.add_argument("--language-filter", choices=["ascii", "none"], default="none")
    p.add_argument("--english-threshold", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=13)
    p.set_defaults(handler=cmd_sentinels)

    p = sub.add_parser("domains", help="community x domain link-fraction matrix")
    p.add_argument("--records", dest="corpus", required=True, type=Path)
    p.add_argument("--roster", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--split", type=parse_timestamp, help="keep tweets before this time")
    p.add_argument("--min-count", dest="domain_min_count", type=int, default=10)
    p.add_argument("--shorteners", type=Path, default=data_path("shorteners.txt"))
    p.set_defaults(handler=cmd_domains)

    p = sub.add_parser("cluster", help="PCA scores and score clusters")
    p.add_argument("--matrix", required=True, type=Path)
    p.add_argument("--scores-output", required=True, type=Path)
    p.add_argument("--loadings-output", type=Path)
    p.add_argument("--clusters", dest="score_clusters", type=int, default=3)
    p.add_argument("--anchor-domain")
    p.set_defaults(handler=cmd_cluster)

    p = sub.add_parser("topics", help="per-community topical tweet counts")
    p.add_argument("--records", dest="corpus", required=True, type=Path)
    p.add_argument("--roster", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--lexicon-dir", type=Path)
    p.set_defaults(handler=cmd_topics)

    p = sub.add_parser("rates", help="per-capita and scaled topical tweet rates")
    p.add_argument("--records", dest="corpus", required=True, type=Path)
    p.add_argument("--roster", required=True, type=Path)
    p.add_argument("--scores", required=True, type=Path)
    p.add_argument("--window-start", required=True, type=date.fromisoformat)
    p.add_argument("--window-end", required=True, type=date.fromisoformat)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--daily-output", type=Path)
    p.add_argument("--lexicon-dir", type=Path)
    p.set_defaults(handler=cmd_rates)

    p = sub.add_parser("similarity", help="daily inter-cluster similarity series")
    p.add_argument("--records", dest="corpus", required=True, type=Path)
    p.add_argument("--roster", required=True, type=Path)
    p.add_argument("--scores", required=True, type=Path)
    p.add_argument("--window-start", required=True, type=date.fromisoformat)
    p.add_argument("--window-end", required=True, type=date.fromisoformat)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--threshold", dest="burst_threshold", type=float, default=2.0)
    p.add_argument("--min-history", type=int, default=7)
    p.add_argument("--stopwords", type=Path, default=data_path("stopwords.txt"))
    p.add_argument("--lexicon-dir", type=Path)
    p.set_defaults(handler=cmd_similarity)

    p = sub.add_parser("flag", help="flag burst days from a similarity series")
    p.add_argument("--series", required=True, type=Path)
    p.add_argument("--threshold", type=float, default=2.0)
    p.add_argument("--min-history", type=int, default=7)
    p.set_defaults(handler=cmd_flag)

    p = sub.add_parser("lsa", help="topical tweets and driver confirmation for flagged days")
    p.add_argument("--records", dest="corpus", required=True, type=Path)
    p.add_argument("--roster", required=True, type=Path)
    p.add_argument("--scores", required=True, type=Path)
    p.add_argument("--series", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--k", dest="lsa_k", type=int, default=5)
    p.add_argument("--threshold", dest="burst_threshold", type=float, default=2.0)
    p.add_argument("--min-history", type=int, default=7)
    p.add_argument("--match-threshold", type=float, default=0.5)
    p.add_argument("--stopwords", type=Path, default=data_path("stopwords.txt"))
    p.add_argument("--lexicon-dir", type=Path)
    p.set_defaults(handler=cmd_lsa)

    p = sub.add_parser("stats", help="chi-square and Krippendorff alpha reports")
    p.add_argument("--contingency", type=Path)
    p.add_argument("--coding", type=Path)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True, type=Path)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("sample", help="seeded stratified sample for human coding")
    p.add_argument("--records", dest="corpus", required=True, type=Path)
    p.add_argument("--roster", required=True, type=Path)
    p.add_argument("--scores", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--per-stratum", type=int, default=100)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--lexicon-dir", type=Path)
    p.add_argument(
        "--topics",
        nargs="*",
        default=["mortality", "facemasks", "hydroxychloroquine", "plandemic"],
    )
    p.set_defaults(handler=cmd_sample)

    return parser


# ---- handlers ----------------------------------------------------------
# Stage subcommands call the pipeline's stage builds; their parsers name
# each option after the PipelineConfig field it sets, so ``args`` is the
# build's params.


def _sentinel_topics(args, ingest):
    """Roster, cluster assignment and topic matches of the sentinels' records."""
    roster = read_roster(args.roster)
    return roster, read_scores_csv(args.scores), STAGES["topics"].build(args, roster, ingest)


def cmd_ingest(args) -> int:
    result = read_corpus(args.input)
    write_corpus(result.records, args.output)
    print(f"parsed {len(result.records)} records, skipped {result.skipped} lines")
    return 0


def cmd_graph(args) -> int:
    built = graph_mod.build_retweet_graph(read_corpus(args.corpus).records)
    graph_mod.write_edges(built, args.output)
    print(f"graph: {built.n} nodes, {len(built.arcs)} arcs, total weight {built.w}")
    return 0


def cmd_communities(args) -> int:
    target = graph_mod.largest_component(graph_mod.read_edges(args.edges))
    partition = STAGES["communities"].build(args, target)
    community_mod.write_partition(partition, args.output)
    quality = community_mod.modularity(target, partition)
    print(
        f"{len(partition.communities)} communities on {target.n} nodes "
        f"(modularity {quality:.4f})"
    )
    return 0


def cmd_compare(args) -> int:
    left = community_mod.read_partition(args.left)
    right = community_mod.read_partition(args.right)
    common_left, common_right = community_mod.restrict_to_common(left, right)
    if not common_left.nodes:
        print("no common nodes")
        return 1
    rand = community_mod.rand_index(common_left, common_right)
    print(f"common nodes: {len(common_left.nodes)}")
    print(f"rand index: {rand:.6f}")
    try:
        z = community_mod.z_rand(common_left, common_right)
        print(f"z-rand: {z:.4f}")
    except SentinetError as exc:
        print(f"z-rand: undefined ({exc})")
    return 0


def cmd_sentinels(args) -> int:
    ingest = None
    if args.language_filter == "ascii":
        if args.corpus is None:
            print("error: --language-filter ascii needs --records", file=sys.stderr)
            return 1
        ingest = read_corpus(args.corpus)
    sentinels = STAGES["sentinels"].build(
        args,
        graph_mod.read_edges(args.edges),
        community_mod.read_partition(args.partition),
        ingest,
    )
    write_roster(sentinels, args.output)
    for label in sentinels.considered:
        print(
            f"community {label}: {len(sentinels.members[label])} sentinels, "
            f"coverage {sentinels.coverage[label]:.3f}"
        )
    return 0


def cmd_domains(args) -> int:
    matrix = STAGES["domains"].build(
        args, read_roster(args.roster), read_corpus(args.corpus)
    )
    domains_mod.write_matrix_csv(matrix, args.output)
    print(
        f"{len(matrix.communities)} communities x {len(matrix.domains)} domains; "
        f"{matrix.unparseable_urls} unparseable urls"
    )
    return 0


def cmd_cluster(args) -> int:
    scores, clusters = STAGES["cluster"].build(args, domains_mod.read_matrix_csv(args.matrix))
    domains_mod.write_scores_csv(scores, clusters, args.scores_output)
    if args.loadings_output is not None:
        domains_mod.write_loadings_csv(scores, args.loadings_output)
    for cluster in range(clusters.k):
        members = sorted(clusters.members(cluster), key=str)
        print(f"cluster {cluster}: centroid {clusters.centroids[cluster]:.4f} {members}")
    return 0


def cmd_topics(args) -> int:
    matched = STAGES["topics"].build(args, read_roster(args.roster), read_corpus(args.corpus))
    topics_mod.write_counts_csv(matched, args.output)
    print(f"wrote topical counts for {len(matched)} communities")
    return 0


def cmd_rates(args) -> int:
    ingest = STAGES["ingest"].build(args)
    roster, cluster, matched = _sentinel_topics(args, ingest)
    table = STAGES["rates"].build(args, roster, cluster, matched, ingest)
    topics_mod.write_rates_csv(table, args.output)
    if args.daily_output is not None:
        topics_mod.write_daily_csv(table, args.daily_output)
    print(f"wrote {len(table.rows)} rate rows ({len(table.excluded)} communities excluded)")
    return 0


def cmd_similarity(args) -> int:
    _, cluster, matched = _sentinel_topics(args, STAGES["ingest"].build(args))
    series_list = STAGES["similarity"].build(args, matched, cluster)
    similarity_mod.write_series_csv(
        series_list, args.output, threshold=args.burst_threshold, min_history=args.min_history
    )
    for series in series_list:
        flagged = similarity_mod.flag_days(series, args.burst_threshold, args.min_history)
        print(
            f"pair {series.pair[0]}-{series.pair[1]}: "
            f"{sum(v is not None for v in series.values)} valid days, "
            f"{len(flagged)} flagged"
        )
    return 0


def cmd_flag(args) -> int:
    for series in similarity_mod.read_series_csv(args.series):
        flagged = similarity_mod.flag_days(series, args.threshold, args.min_history)
        days = " ".join(day.isoformat() for day in sorted(flagged))
        print(f"pair {series.pair[0]}-{series.pair[1]}: {days or '(none)'}")
    return 0


def cmd_lsa(args) -> int:
    _, cluster, matched = _sentinel_topics(args, read_corpus(args.corpus))
    series_list = similarity_mod.read_series_csv(args.series)
    report = STAGES["lsa"].build(args, series_list, matched, cluster)
    write_json(report, args.output)
    print(f"examined {len(report['events'])} flagged events")
    return 0


def cmd_stats(args) -> int:
    payload = STAGES["stats"].build(args)
    if payload is None:
        print("error: provide --contingency and/or --coding", file=sys.stderr)
        return 1
    if "chi_square" in payload:
        result = payload["chi_square"]
        print(
            f"chi-square: statistic={result['statistic']:.4f} df={result['df']} "
            f"p={result['p_value']:.3e}"
        )
    if "krippendorff_alpha" in payload:
        print(f"krippendorff alpha: {payload['krippendorff_alpha']:.4f}")
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config)
    result = run_pipeline(config)
    for key in sorted(result.summary):
        print(f"{key}: {result.summary[key]}")
    print(f"artifacts in {result.output_dir}")
    return 0


def cmd_sample(args) -> int:
    for topic in args.topics:
        if topic not in topics_mod.DEFAULT_TOPIC_TREE:
            print(f"error: unknown topic {topic!r}", file=sys.stderr)
            return 1
    _, (_, cluster_of), matched = _sentinel_topics(args, read_corpus(args.corpus))
    strata: dict[tuple[str, str], list] = {}
    for community, per_topic in matched.items():
        cluster = str(cluster_of[community])
        for topic in args.topics:
            strata.setdefault((cluster, topic), []).extend(
                (community, record) for record in per_topic[topic]
            )
    rows = stratified_coding_sample(strata, per_stratum=args.per_stratum, seed=args.seed)
    with atomic_open(args.output) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["cluster", "topic", "community", "tweet_id", "created_at", "text"])
        for cluster, topic, community, record in rows:
            writer.writerow(
                [
                    cluster,
                    topic,
                    community,
                    record.tweet_id,
                    record.created_at.isoformat(),
                    record.text,
                ]
            )
    print(f"sampled {len(rows)} tweets across {len(strata)} strata")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
