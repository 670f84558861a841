"""Command-line interface: the full pipeline runner, plus stage subcommands
generated from their rows of ``pipeline.STAGES`` and run by one handler,
:func:`cmd_stage`, which resolves upstream values through the pipeline's runner.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import MISSING
from pathlib import Path
from types import SimpleNamespace

from . import community as community_mod
from . import domains as domains_mod
from . import similarity as similarity_mod
from . import topics as topics_mod
from .config import FIELDS, check_value, load_config, value_parser
from .errors import ConfigError, SentinetError, StageError
from .fileio import write_csv
from .ingest import PACKAGED, read_corpus, write_corpus
from .pipeline import STAGES, _Runner, read_input, reading, run_pipeline
from .sentinel import coverage

# upstream stage -> the input option its value is loaded from; a command
# builds any other upstream from that stage's own inputs
_INPUT_OPTIONS = {
    "graph": "--edges", "communities": "--partition", "sentinels": "--roster",
    "domains": "--matrix", "cluster": "--scores", "similarity": "--series",
}
# config field -> its option, where that is not the field's name with dashes
_FLAGS = {
    "corpus": "--records", "sentinel_k": "--k", "lsa_k": "--k",
    "domain_min_count": "--min-count", "score_clusters": "--clusters",
    "burst_threshold": "--threshold",
}
# (command, config field) -> how its option differs from the field's
_OVERRIDES = {
    ("sentinels", "corpus"): dict(required=False, help="corpus for the language filter"),
    # not the config's ascii: that filter needs --records, which is optional here
    ("sentinels", "language_filter"): dict(type=None, choices=["ascii", "none"], default="none"),
    ("domains", "split"): dict(required=False, help="keep tweets before this time"),
}
_WINDOW = ("window_start", "window_end")

# stage subcommand -> help, and an output option per file (the first required)
_STAGE_COMMANDS = {
    "graph": ("build the retweet graph edge list", ("--output",)),
    "communities": ("Louvain communities of the largest component", ("--output",)),
    "sentinels": ("select most-retweeted accounts per community", ("--output",)),
    "domains": ("community x domain link-fraction matrix", ("--output",)),
    "cluster": ("PCA scores and score clusters", ("--scores-output", "--loadings-output")),
    "topics": ("per-community topical tweet counts", ("--output",)),
    "rates": ("per-capita and scaled topical tweet rates", ("--output", "--daily-output")),
    "similarity": ("daily inter-cluster similarity series", ("--output",)),
    "lsa": ("topical tweets and driver confirmation for flagged days", ("--output",)),
}
# stage subcommand -> the lines it prints, from its value and its runner
_REPORTS = {
    "graph": lambda graph, runner: [
        f"graph: {graph.n} nodes, {len(graph.arcs)} arcs, total weight {graph.w}"
    ],
    "communities": lambda partition, runner: [
        f"{len(partition.communities)} communities on {runner.value('component').n} nodes "
        f"(modularity {community_mod.modularity(runner.value('component'), partition):.4f})"
    ],
    "sentinels": lambda roster, runner: [
        f"community {label}: {len(roster[label])} sentinels, coverage {share:.3f}"
        for label, share in coverage(
            runner.value("component"), runner.value("communities"), roster
        ).items()
    ],
    "domains": lambda matrix, runner: [
        f"{len(matrix.communities)} communities x {len(matrix.domains)} domains; "
        f"{matrix.unparseable_urls} unparseable urls"
    ],
    "cluster": lambda cluster, runner: [
        f"cluster {index}: centroid {centroid:.4f} "
        f"{domains_mod.cluster_members(cluster[1])[str(index)]}"
        for index, centroid in enumerate(domains_mod.centroids(cluster[0].scores, cluster[1]))
    ],
    "topics": lambda matched, runner: [f"wrote topical counts for {len(matched)} communities"],
    "rates": lambda table, runner: [
        f"wrote {len(table.rows)} rate rows ({len(table.excluded)} communities excluded)"
    ],
    "similarity": lambda series_list, runner: [
        f"pair {series.pair[0]}-{series.pair[1]}: "
        f"{sum(v is not None for v in series.values)} valid days, "
        f"{len(_flagged(series, runner.args))} flagged"
        for series in series_list
    ],
    "lsa": lambda report, runner: [f"examined {len(report['events'])} flagged events"],
}


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

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("ingest", cmd_ingest, "parse a JSONL corpus into canonical form")
    p.add_argument("--output", required=True, type=_output_path)
    p.add_argument("--input", required=True, type=_input_path)
    # optional here, but given together: the window the pipeline's ingest keeps
    _config_option(p, "--window-start", "window_start")
    _config_option(p, "--window-end", "window_end")

    for name, (help, outputs) in _STAGE_COMMANDS.items():
        p = command(name, cmd_stage, help)
        _stage_options(p, name, STAGES[name].reads, STAGES[name].upstream)
        for index, flag in enumerate(outputs):
            p.add_argument(flag, required=index == 0, type=_output_path)

    p = command("compare-partitions", cmd_compare, "Rand index and z-Rand of two partitions")
    p.add_argument("--left", required=True, type=_input_path)
    p.add_argument("--right", required=True, type=_input_path)

    p = command("flag", cmd_flag, "flag burst days from a similarity series")
    _stage_options(p, "flag", ("burst_threshold", "min_history"), ("similarity",))

    p = command("stats", cmd_stats, "chi-square and Krippendorff alpha reports")
    _config_option(p, "--contingency", "contingency")
    _config_option(p, "--coding", "coding")

    p = command("run", cmd_run, "run the full pipeline from a config file")
    p.add_argument("--config", required=True, type=_input_path)

    p = command("sample", cmd_sample, "seeded stratified sample for human coding")
    _stage_options(p, "sample", ("seed",), ("topics", "cluster"))
    p.add_argument("--output", required=True, type=_output_path)
    p.add_argument("--per-stratum", type=_positive_int, default=100)
    p.add_argument(
        "--topics",
        nargs="+",
        default=["mortality", "facemasks", "hydroxychloroquine", "plandemic"],
    )

    return parser


def _stage_options(parser, command: str, reads, upstream) -> None:
    """Add the options of a command that builds from ``reads`` and ``upstream``.

    Each upstream in ``_INPUT_OPTIONS`` gets its input option; any other is
    built, so the config fields it reads and its own upstreams join the
    command's. The window is an option only where ``reads`` holds it.
    """
    names, inputs, pending = dict.fromkeys(reads), {}, list(upstream)
    while pending:
        name = pending.pop(0)
        if name in _INPUT_OPTIONS:
            inputs[name] = _INPUT_OPTIONS[name]
        else:
            names.update(dict.fromkeys(n for n in STAGES[name].reads if n not in _WINDOW))
            pending += STAGES[name].upstream
    for name in names:
        options = {"required": FIELDS[name].default is MISSING}
        options.update(_OVERRIDES.get((command, name), {}))
        _config_option(parser, _FLAGS.get(name, "--" + name.replace("_", "-")), name, **options)
    for name, flag in inputs.items():
        parser.add_argument(
            flag, dest=name, metavar=flag[2:].upper(), required=True, type=_input_path
        )


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
    parser.add_argument(flag, dest=name, **{"type": parse_checked, "default": default, **kwargs})


def _positive_int(text: str) -> int:
    """A count option's value; anything but a positive integer is a usage error."""
    if not text.strip().isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"bad value {text!r}: must be a positive integer")
    return int(text)


def _input_path(text: str) -> Path:
    """An input file option's path; a missing file is a usage error, as for ``--records``."""
    if not Path(text).exists():
        raise argparse.ArgumentTypeError(f"path not found: {text}")
    return Path(text)


def _output_path(text: str) -> Path:
    """An output file option's path; a directory there, or none to hold it, is a usage error."""
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"cannot write {text}: it is a directory")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"cannot write {text}: {path.parent} is not a directory")
    return path


def _check_clusters(runner) -> None:
    """Raise one error naming ``--scores`` when it gives no cluster to a
    roster community, or no community to a cluster that ``--series`` pairs."""
    _, cluster_of = runner.value("cluster")
    missing = [label for label in runner.value("sentinels") if label not in cluster_of]
    problem = f"no cluster for roster communities {' '.join(missing)}"
    if not missing and runner.args.command == "lsa":
        paired = {side for series in runner.value("similarity") for side in series.pair}
        missing = sorted(paired - set(domains_mod.cluster_members(cluster_of)))
        problem = f"no community in --series clusters {' '.join(missing)}"
    if missing:
        raise SentinetError(f"cannot read {runner.args.cluster}: {problem}")


def _flagged(series, args) -> list:
    return similarity_mod.flag_days(series, args.burst_threshold, args.min_history)


class _CommandRunner(_Runner):
    """The pipeline's runner over a subcommand's options: its input options
    are loaded, the other upstreams built, and a config field with no option
    (the window outside ``rates`` and ``similarity``) is unset.
    """

    def __init__(self, args):
        self.args = args
        self.values = {}

    def paths(self, stage):
        if stage.name == self.args.command:
            outputs = _STAGE_COMMANDS[stage.name][1]
            return [getattr(self.args, flag[2:].replace("-", "_")) for flag in outputs]
        return [getattr(self.args, stage.name)]

    def params(self, stage):
        return SimpleNamespace(**{name: getattr(self.args, name, None) for name in stage.reads})

    def loads(self, stage):
        return stage.name in _INPUT_OPTIONS

    def errors(self, stage):
        if self.loads(stage):
            return reading(self.paths(stage)[0])
        return reading(self.args.corpus) if stage.name == "ingest" else nullcontext()


# ---- handlers ----------------------------------------------------------


def cmd_ingest(args) -> int:
    if (args.window_start is None) != (args.window_end is None):
        raise ConfigError("--window-start and --window-end must be given together")
    result = read_input(read_corpus, args.input)
    records = result.records
    message = f"parsed {len(records)} records, skipped {result.skipped} lines"
    if args.window_start is not None:
        records = records.within(args.window_start, args.window_end)
        message += f", kept {len(records)} inside the window"
    write_corpus(records, args.output)
    print(message)
    return 0


def cmd_stage(args) -> int:
    """Build the subcommand's stage, write its files and print its summary."""
    stage = STAGES[args.command]
    runner = _CommandRunner(args)
    if args.command == "sentinels" and args.language_filter != "ascii":
        runner.values["ingest"] = None  # only the language filter reads the corpus
    elif args.command == "sentinels" and args.corpus is None:
        print("error: --language-filter ascii needs --records", file=sys.stderr)
        return 1
    if "cluster" in stage.upstream:
        _check_clusters(runner)
    params = runner.params(stage)
    value = runner.build(stage, params)
    stage.write(value, runner.paths(stage), params)
    for line in _REPORTS[stage.name](value, runner):
        print(line)
    return 0


def cmd_compare(args) -> int:
    left = read_input(community_mod.read_partition, args.left)
    right = read_input(community_mod.read_partition, args.right)
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


def cmd_flag(args) -> int:
    for series in _CommandRunner(args).value("similarity"):
        days = " ".join(day.isoformat() for day in sorted(_flagged(series, args)))
        print(f"pair {series.pair[0]}-{series.pair[1]}: {days or '(none)'}")
    return 0


def cmd_stats(args) -> int:
    if args.contingency is None and args.coding is None:
        print("error: provide --contingency and/or --coding", file=sys.stderr)
        return 1
    payload = STAGES["stats"].build(args)
    if "chi_square" in payload:
        line = "chi-square: statistic={statistic:.4f} df={df} p={p_value:.3e}"
        print(line.format(**payload["chi_square"]))
    if "krippendorff_alpha" in payload:
        print(f"krippendorff alpha: {payload['krippendorff_alpha']:.4f}")
    return 0


def cmd_run(args) -> int:
    config = read_input(load_config, args.config)
    summary = run_pipeline(config)
    for key in sorted(summary):
        print(f"{key}: {summary[key]}")
    print(f"artifacts in {config.output_dir}")
    return 0


def cmd_sample(args) -> int:
    for topic in args.topics:
        if topic not in topics_mod.DEFAULT_TOPIC_TREE:
            print(f"error: unknown topic {topic!r}", file=sys.stderr)
            return 1
    runner = _CommandRunner(args)
    _check_clusters(runner)
    matched, (_, cluster_of) = runner.value("topics"), runner.value("cluster")
    corpus = runner.value("ingest").records
    strata: dict[tuple[str, str], list] = {}
    for community, per_topic in matched.items():
        cluster = str(cluster_of[community])
        for topic in args.topics:
            strata.setdefault((cluster, topic), []).extend(
                (community, row) for row in per_topic[topic].tolist()
            )
    rows = topics_mod.stratified_coding_sample(corpus, strata, args.per_stratum, args.seed)
    picked = [row for *_, row in rows]
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
                tweet_id,
                corpus.created_at(row).isoformat(),
                text.encode(errors="backslashreplace").decode(),
            ]
            for (cluster, topic, community, row), tweet_id, text in zip(
                rows, corpus.tweet_ids.take(picked), corpus.texts.take(picked)
            )
        ),
    )
    print(f"sampled {len(rows)} tweets across {len(strata)} strata")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
