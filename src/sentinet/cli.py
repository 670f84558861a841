"""Command-line interface: stage subcommands plus the full pipeline runner."""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING
from pathlib import Path

from . import community as community_mod
from . import domains as domains_mod
from . import graph as graph_mod
from . import similarity as similarity_mod
from . import topics as topics_mod
from .config import FIELDS, check_value, load_config, value_parser
from .domains import read_scores_csv
from .errors import ConfigError, SentinetError, StageError
from .fileio import write_csv, write_json
from .ingest import PACKAGED, read_corpus, write_corpus
from .pipeline import STAGES, run_pipeline
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

    def command(name, handler, help, parents=()):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(handler=handler)
        return p

    # option groups shared by several subcommands
    output, seed, stopwords, inputs, window, burst = (
        argparse.ArgumentParser(add_help=False) for _ in range(6)
    )
    output.add_argument("--output", required=True, type=Path)
    _config_option(seed, "--seed", "seed")
    _config_option(stopwords, "--stopwords", "stopwords")
    _config_option(inputs, "--records", "corpus", required=True)
    inputs.add_argument("--roster", required=True, type=_input_path)
    inputs.add_argument("--scores", required=True, type=_input_path)
    _config_option(inputs, "--lexicon-dir", "lexicon_dir")
    _config_option(window, "--window-start", "window_start", required=True)
    _config_option(window, "--window-end", "window_end", required=True)
    _config_option(burst, "--threshold", "burst_threshold")
    _config_option(burst, "--min-history", "min_history")

    p = command("ingest", cmd_ingest, "parse a JSONL corpus into canonical form", [output])
    p.add_argument("--input", required=True, type=_input_path)
    # optional here, but given together: the window the pipeline's ingest keeps
    _config_option(p, "--window-start", "window_start")
    _config_option(p, "--window-end", "window_end")

    p = command("graph", cmd_graph, "build the retweet graph edge list", [output])
    _config_option(p, "--records", "corpus", required=True)

    p = command(
        "communities", cmd_communities, "Louvain communities of the largest component",
        [output, seed],
    )
    p.add_argument("--edges", required=True, type=_input_path)

    p = command("compare-partitions", cmd_compare, "Rand index and z-Rand of two partitions")
    p.add_argument("--left", required=True, type=_input_path)
    p.add_argument("--right", required=True, type=_input_path)

    p = command(
        "sentinels", cmd_sentinels, "select most-retweeted accounts per community",
        [output, seed],
    )
    p.add_argument("--edges", required=True, type=_input_path)
    p.add_argument("--partition", required=True, type=_input_path)
    _config_option(p, "--k", "sentinel_k")
    _config_option(p, "--top-m", "top_m")
    _config_option(p, "--records", "corpus", help="corpus for the language filter")
    # not the config's ascii: that filter needs --records, which is optional here
    p.add_argument("--language-filter", choices=["ascii", "none"], default="none")
    _config_option(p, "--english-threshold", "english_threshold")

    p = command("domains", cmd_domains, "community x domain link-fraction matrix", [output])
    _config_option(p, "--records", "corpus", required=True)
    p.add_argument("--roster", required=True, type=_input_path)
    _config_option(p, "--split", "split", help="keep tweets before this time")
    _config_option(p, "--min-count", "domain_min_count")
    _config_option(p, "--shorteners", "shorteners")

    p = command("cluster", cmd_cluster, "PCA scores and score clusters")
    p.add_argument("--matrix", required=True, type=_input_path)
    p.add_argument("--scores-output", required=True, type=Path)
    p.add_argument("--loadings-output", type=Path)
    _config_option(p, "--clusters", "score_clusters")
    _config_option(p, "--anchor-domain", "anchor_domain")

    p = command("topics", cmd_topics, "per-community topical tweet counts", [output])
    _config_option(p, "--records", "corpus", required=True)
    p.add_argument("--roster", required=True, type=_input_path)
    _config_option(p, "--lexicon-dir", "lexicon_dir")

    p = command(
        "rates", cmd_rates, "per-capita and scaled topical tweet rates",
        [inputs, window, output],
    )
    p.add_argument("--daily-output", type=Path)

    command(
        "similarity", cmd_similarity, "daily inter-cluster similarity series",
        [inputs, window, output, burst, stopwords],
    )

    p = command("flag", cmd_flag, "flag burst days from a similarity series", [burst])
    p.add_argument("--series", required=True, type=_input_path)

    p = command(
        "lsa", cmd_lsa, "topical tweets and driver confirmation for flagged days",
        [inputs, output, burst, stopwords],
    )
    p.add_argument("--series", required=True, type=_input_path)
    _config_option(p, "--k", "lsa_k")
    _config_option(p, "--match-threshold", "match_threshold")

    p = command("stats", cmd_stats, "chi-square and Krippendorff alpha reports")
    _config_option(p, "--contingency", "contingency")
    _config_option(p, "--coding", "coding")

    p = command("run", cmd_run, "run the full pipeline from a config file")
    p.add_argument("--config", required=True, type=_input_path)

    p = command(
        "sample", cmd_sample, "seeded stratified sample for human coding",
        [inputs, output, seed],
    )
    p.add_argument("--per-stratum", type=int, default=100)
    p.add_argument(
        "--topics",
        nargs="*",
        default=["mortality", "facemasks", "hydroxychloroquine", "plandemic"],
    )

    return parser


def _config_option(parser: argparse.ArgumentParser, flag: str, name: str, **kwargs) -> None:
    """Add ``flag`` setting config field ``name``, parsed, checked and defaulted as in the config.

    An out-of-range value is a usage error. An unset path defaults to the
    packaged file the pipeline uses in its place.
    """
    parse = value_parser(name)

    def parse_checked(text: str):
        try:
            value = parse(text)
            check_value(name, value)
        except (ValueError, ConfigError) as exc:
            raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") from exc
        return value

    default = FIELDS[name].default
    default = PACKAGED.get(name, None if default is MISSING else default)
    parser.add_argument(flag, dest=name, type=parse_checked, default=default, **kwargs)


def _input_path(text: str) -> Path:
    """An input file option's path; a missing file is a usage error, as for ``--records``."""
    if not Path(text).exists():
        raise argparse.ArgumentTypeError(f"path not found: {text}")
    return Path(text)


def _read(reader, path: Path):
    """``reader(path)``; a file that does not parse is one error naming it."""
    try:
        return reader(path)
    except (OSError, ValueError, LookupError, SentinetError) as exc:
        raise SentinetError(f"cannot read {path}: {exc}") from exc


# ---- handlers ----------------------------------------------------------
# Stage subcommands call the pipeline's stage builds; their parsers name
# each option after the PipelineConfig field it sets, so ``args`` is the
# build's params.


def _sentinel_topics(args, ingest):
    """Roster, cluster assignment and topic matches of the sentinels' records."""
    roster = _read(read_roster, args.roster)
    scores = _read(read_scores_csv, args.scores)
    return roster, scores, STAGES["topics"].build(args, roster, ingest)


def cmd_ingest(args) -> int:
    if (args.window_start is None) != (args.window_end is None):
        raise ConfigError("--window-start and --window-end must be given together")
    result = _read(read_corpus, args.input)
    records = result.records
    message = f"parsed {len(records)} records, skipped {result.skipped} lines"
    if args.window_start is not None:
        records = records.within(args.window_start, args.window_end)
        message += f", kept {len(records)} inside the window"
    write_corpus(records, args.output)
    print(message)
    return 0


def cmd_graph(args) -> int:
    built = graph_mod.build_retweet_graph(_read(read_corpus, args.corpus).records)
    graph_mod.write_edges(built, args.output)
    print(f"graph: {built.n} nodes, {len(built.arcs)} arcs, total weight {built.w}")
    return 0


def cmd_communities(args) -> int:
    target = graph_mod.largest_component(_read(graph_mod.read_edges, args.edges))
    partition = STAGES["communities"].build(args, target)
    community_mod.write_partition(partition, args.output)
    quality = community_mod.modularity(target, partition)
    print(
        f"{len(partition.communities)} communities on {target.n} nodes "
        f"(modularity {quality:.4f})"
    )
    return 0


def cmd_compare(args) -> int:
    left = _read(community_mod.read_partition, args.left)
    right = _read(community_mod.read_partition, args.right)
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
        ingest = _read(read_corpus, args.corpus)
    sentinels = STAGES["sentinels"].build(
        args,
        _read(graph_mod.read_edges, args.edges),
        _read(community_mod.read_partition, args.partition),
        ingest,
    )
    write_roster(sentinels, args.output)
    for label in sentinels:
        print(
            f"community {label}: {len(sentinels.members[label])} sentinels, "
            f"coverage {sentinels.coverage[label]:.3f}"
        )
    return 0


def cmd_domains(args) -> int:
    roster = _read(read_roster, args.roster)
    matrix = STAGES["domains"].build(args, roster, _read(read_corpus, args.corpus))
    domains_mod.write_matrix_csv(matrix, args.output)
    print(
        f"{len(matrix.communities)} communities x {len(matrix.domains)} domains; "
        f"{matrix.unparseable_urls} unparseable urls"
    )
    return 0


def cmd_cluster(args) -> int:
    matrix = _read(domains_mod.read_matrix_csv, args.matrix)
    scores, clusters = STAGES["cluster"].build(args, matrix)
    domains_mod.write_scores_csv(scores, clusters, args.scores_output)
    if args.loadings_output is not None:
        domains_mod.write_loadings_csv(scores, args.loadings_output)
    for cluster, centroid in enumerate(clusters.centroids):
        members = sorted(clusters.members(cluster), key=str)
        print(f"cluster {cluster}: centroid {centroid:.4f} {members}")
    return 0


def cmd_topics(args) -> int:
    roster = _read(read_roster, args.roster)
    matched = STAGES["topics"].build(args, roster, _read(read_corpus, args.corpus))
    topics_mod.write_counts_csv(matched, args.output)
    print(f"wrote topical counts for {len(matched)} communities")
    return 0


def cmd_rates(args) -> int:
    # the ingest build reads args.corpus and keeps the window's tweets
    ingest = _read(lambda _: STAGES["ingest"].build(args), args.corpus)
    roster, cluster, matched = _sentinel_topics(args, ingest)
    table = STAGES["rates"].build(args, roster, cluster, matched, ingest)
    topics_mod.write_rates_csv(table, args.output)
    if args.daily_output is not None:
        topics_mod.write_daily_csv(table, args.daily_output)
    print(f"wrote {len(table.rows)} rate rows ({len(table.excluded)} communities excluded)")
    return 0


def cmd_similarity(args) -> int:
    ingest = _read(lambda _: STAGES["ingest"].build(args), args.corpus)
    _, cluster, matched = _sentinel_topics(args, ingest)
    series_list = STAGES["similarity"].build(args, matched, cluster, ingest)
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
    for series in _read(similarity_mod.read_series_csv, args.series):
        flagged = similarity_mod.flag_days(series, args.burst_threshold, args.min_history)
        days = " ".join(day.isoformat() for day in sorted(flagged))
        print(f"pair {series.pair[0]}-{series.pair[1]}: {days or '(none)'}")
    return 0


def cmd_lsa(args) -> int:
    ingest = _read(read_corpus, args.corpus)
    _, cluster, matched = _sentinel_topics(args, ingest)
    series_list = _read(similarity_mod.read_series_csv, args.series)
    report = STAGES["lsa"].build(args, series_list, matched, cluster, ingest)
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
    config = _read(load_config, args.config)
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
    ingest = _read(read_corpus, args.corpus)
    _, (_, cluster_of), matched = _sentinel_topics(args, ingest)
    corpus = ingest.records
    strata: dict[tuple[str, str], list] = {}
    for community, per_topic in matched.items():
        cluster = str(cluster_of[community])
        for topic in args.topics:
            strata.setdefault((cluster, topic), []).extend(
                (community, row) for row in per_topic[topic].tolist()
            )
    rows = topics_mod.stratified_coding_sample(corpus, strata, args.per_stratum, args.seed)
    # a lone surrogate, which UTF-8 cannot encode, is written as its escape
    # (\ud800), as write_corpus writes it in JSON
    write_csv(
        args.output,
        ["cluster", "topic", "community", "tweet_id", "created_at", "text"],
        (
            [
                cluster,
                topic,
                community,
                corpus.tweet_ids[row],
                corpus.created_at(row).isoformat(),
                corpus.texts[row].encode(errors="backslashreplace").decode(),
            ]
            for cluster, topic, community, row in rows
        ),
    )
    print(f"sampled {len(rows)} tweets across {len(strata)} strata")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
