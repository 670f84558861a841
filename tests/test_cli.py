import argparse
import csv
import json
import os
from dataclasses import MISSING, fields
from datetime import timedelta
from types import SimpleNamespace

import pytest

from sentinet.cli import build_parser, main
from sentinet.config import serialize_config, PipelineConfig
from sentinet.ingest import PACKAGED, read_corpus, write_corpus
from sentinet.pipeline import STAGES, run_pipeline


# every pipeline artifact that a stage subcommand also writes
CLI_ARTIFACTS = (
    "graph.edges",
    "partition.txt",
    "sentinels.txt",
    "domain_matrix.csv",
    "domain_scores.csv",
    "domain_loadings.csv",
    "topic_counts.csv",
    "rates.csv",
    "rates_daily.csv",
    "similarity.csv",
    "lsa_drivers.json",
)

# Every subcommand's help and options, as the hand-written parser declared
# them before the stage subcommands were generated from the stage table:
# option -> (default, required, choices, help)
CLI_SURFACE = {
    "ingest": (
        "parse a JSONL corpus into canonical form",
        {
            "--output": (None, True, None, None),
            "--input": (None, True, None, None),
            "--window-start": (None, False, None, None),
            "--window-end": (None, False, None, None),
        },
    ),
    "graph": (
        "build the retweet graph edge list",
        {
            "--output": (None, True, None, None),
            "--records": (None, True, None, None),
        },
    ),
    "communities": (
        "Louvain communities of the largest component",
        {
            "--output": (None, True, None, None),
            "--seed": (13, False, None, None),
            "--edges": (None, True, None, None),
        },
    ),
    "compare-partitions": (
        "Rand index and z-Rand of two partitions",
        {
            "--left": (None, True, None, None),
            "--right": (None, True, None, None),
        },
    ),
    "sentinels": (
        "select most-retweeted accounts per community",
        {
            "--output": (None, True, None, None),
            "--seed": (13, False, None, None),
            "--edges": (None, True, None, None),
            "--partition": (None, True, None, None),
            "--k": (15, False, None, None),
            "--top-m": (50, False, None, None),
            "--records": (None, False, None, "corpus for the language filter"),
            "--language-filter": ("none", False, ["ascii", "none"], None),
            "--english-threshold": (0.8, False, None, None),
        },
    ),
    "domains": (
        "community x domain link-fraction matrix",
        {
            "--output": (None, True, None, None),
            "--records": (None, True, None, None),
            "--roster": (None, True, None, None),
            "--split": (None, False, None, "keep tweets before this time"),
            "--min-count": (10, False, None, None),
            "--shorteners": (PACKAGED["shorteners"], False, None, None),
        },
    ),
    "cluster": (
        "PCA scores and score clusters",
        {
            "--matrix": (None, True, None, None),
            "--scores-output": (None, True, None, None),
            "--loadings-output": (None, False, None, None),
            "--clusters": (3, False, None, None),
            "--anchor-domain": (None, False, None, None),
        },
    ),
    "topics": (
        "per-community topical tweet counts",
        {
            "--output": (None, True, None, None),
            "--records": (None, True, None, None),
            "--roster": (None, True, None, None),
            "--lexicon-dir": (PACKAGED["lexicon_dir"], False, None, None),
        },
    ),
    "rates": (
        "per-capita and scaled topical tweet rates",
        {
            "--records": (None, True, None, None),
            "--roster": (None, True, None, None),
            "--scores": (None, True, None, None),
            "--lexicon-dir": (PACKAGED["lexicon_dir"], False, None, None),
            "--window-start": (None, True, None, None),
            "--window-end": (None, True, None, None),
            "--output": (None, True, None, None),
            "--daily-output": (None, False, None, None),
        },
    ),
    "similarity": (
        "daily inter-cluster similarity series",
        {
            "--records": (None, True, None, None),
            "--roster": (None, True, None, None),
            "--scores": (None, True, None, None),
            "--lexicon-dir": (PACKAGED["lexicon_dir"], False, None, None),
            "--window-start": (None, True, None, None),
            "--window-end": (None, True, None, None),
            "--output": (None, True, None, None),
            "--threshold": (2.0, False, None, None),
            "--min-history": (7, False, None, None),
            "--stopwords": (PACKAGED["stopwords"], False, None, None),
        },
    ),
    "flag": (
        "flag burst days from a similarity series",
        {
            "--threshold": (2.0, False, None, None),
            "--min-history": (7, False, None, None),
            "--series": (None, True, None, None),
        },
    ),
    "lsa": (
        "topical tweets and driver confirmation for flagged days",
        {
            "--records": (None, True, None, None),
            "--roster": (None, True, None, None),
            "--scores": (None, True, None, None),
            "--lexicon-dir": (PACKAGED["lexicon_dir"], False, None, None),
            "--output": (None, True, None, None),
            "--threshold": (2.0, False, None, None),
            "--min-history": (7, False, None, None),
            "--stopwords": (PACKAGED["stopwords"], False, None, None),
            "--series": (None, True, None, None),
            "--k": (5, False, None, None),
            "--match-threshold": (0.5, False, None, None),
        },
    ),
    "stats": (
        "chi-square and Krippendorff alpha reports",
        {
            "--contingency": (None, False, None, None),
            "--coding": (None, False, None, None),
        },
    ),
    "run": (
        "run the full pipeline from a config file",
        {
            "--config": (None, True, None, None),
        },
    ),
    "sample": (
        "seeded stratified sample for human coding",
        {
            "--records": (None, True, None, None),
            "--roster": (None, True, None, None),
            "--scores": (None, True, None, None),
            "--lexicon-dir": (PACKAGED["lexicon_dir"], False, None, None),
            "--output": (None, True, None, None),
            "--seed": (13, False, None, None),
            "--per-stratum": (100, False, None, None),
            "--topics": (
                ["mortality", "facemasks", "hydroxychloroquine", "plandemic"], False, None, None
            ),
        },
    ),
}


@pytest.fixture(scope="module")
def workspace(default_corpus, tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    records, truth = default_corpus
    corpus = base / "corpus.jsonl"
    write_corpus(records, corpus)
    return base, corpus, truth


@pytest.fixture(scope="module")
def spilled_corpus(workspace):
    """The default corpus plus tweets dated before and after its window, and a
    retweet pair outside the main component.

    The out-of-window tweets are hub retweets of other hubs, with topic words
    and a link, so any stage that kept them would write other bytes.
    """
    base, corpus, truth = workspace
    hubs = [hub for community in truth.hubs.values() for hub in community]
    extra = [
        {"tweet_id": f"out{day}-{i}", "author_id": hub, "retweeted_author_id": hubs[i - 1],
         "created_at": f"{day}T12:00:00Z", "text": "covid mask death rate vaccine",
         "urls": ["https://outside.example.com/a"]}
        for day in (truth.window[0] - timedelta(days=3), truth.window[1] + timedelta(days=3))
        for i, hub in enumerate(hubs)
    ]
    extra.append(
        {"tweet_id": "pair", "author_id": "pair_a", "retweeted_author_id": "pair_b",
         "created_at": f"{truth.window[0] + timedelta(days=2)}T12:00:00Z", "text": "covid mask"}
    )
    spilled = base / "spilled.jsonl"
    spilled.write_text(
        corpus.read_text(encoding="utf-8") + "".join(json.dumps(line) + "\n" for line in extra),
        encoding="utf-8",
    )
    return spilled


@pytest.fixture(scope="module")
def staged(workspace):
    """Artifacts produced by chaining the stage subcommands."""
    base, corpus, truth = workspace
    records = base / "records.jsonl"
    edges = base / "graph.edges"
    partition = base / "partition.txt"
    roster = base / "sentinels.txt"
    matrix = base / "matrix.csv"
    scores = base / "scores.csv"
    assert main(["ingest", "--input", str(corpus), "--output", str(records)]) == 0
    assert main(["graph", "--records", str(records), "--output", str(edges)]) == 0
    assert main(
        ["communities", "--edges", str(edges), "--output", str(partition), "--seed", "13"]
    ) == 0
    assert main(
        [
            "sentinels",
            "--edges", str(edges),
            "--partition", str(partition),
            "--output", str(roster),
            "--records", str(records),
            "--language-filter", "ascii",
        ]
    ) == 0
    assert main(
        [
            "domains",
            "--records", str(records),
            "--roster", str(roster),
            "--output", str(matrix),
            "--split", truth.split.isoformat(),
        ]
    ) == 0
    assert main(
        [
            "cluster",
            "--matrix", str(matrix),
            "--scores-output", str(scores),
            "--loadings-output", str(base / "loadings.csv"),
        ]
    ) == 0
    return base, records, edges, partition, roster, matrix, scores, truth


class TestStageCommands:
    def test_partition_has_nine_communities(self, staged):
        _, _, _, partition, *_ = staged
        labels = {line.split()[1] for line in partition.read_text().splitlines()}
        assert len(labels) == 9

    def test_roster_lists_sentinels(self, staged):
        *_, roster, _, _, truth = staged
        rows = [line.split() for line in roster.read_text().splitlines()]
        accounts = {row[1] for row in rows}
        assert accounts == {hub for hubs in truth.hubs.values() for hub in hubs}

    def test_scores_csv_has_three_clusters(self, staged):
        *_, scores, truth = staged
        with open(scores) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 9
        assert {row["cluster"] for row in rows} == {"0", "1", "2"}

    def test_compare_partitions_self(self, staged, capsys):
        _, _, _, partition, *_ = staged
        assert main(
            ["compare-partitions", "--left", str(partition), "--right", str(partition)]
        ) == 0
        out = capsys.readouterr().out
        assert "rand index: 1.000000" in out

    def test_topics_and_rates(self, staged, capsys):
        base, records, _, _, roster, _, scores, truth = staged
        counts = base / "topic_counts.csv"
        assert main(
            ["topics", "--records", str(records), "--roster", str(roster),
             "--output", str(counts)]
        ) == 0
        rates = base / "rates.csv"
        daily = base / "rates_daily.csv"
        assert main(
            [
                "rates",
                "--records", str(records),
                "--roster", str(roster),
                "--scores", str(scores),
                "--window-start", truth.window[0].isoformat(),
                "--window-end", truth.window[1].isoformat(),
                "--output", str(rates),
                "--daily-output", str(daily),
            ]
        ) == 0
        with open(rates) as handle:
            rows = list(csv.DictReader(handle))
        covid_rows = [row for row in rows if row["topic"] == "covid"]
        assert len(covid_rows) == 9
        total = sum(float(row["sum_scaled"]) for row in covid_rows)
        assert total == pytest.approx(1.0)

    def test_similarity_flag_lsa_chain(self, staged, capsys):
        base, records, _, _, roster, _, scores, truth = staged
        series = base / "similarity.csv"
        assert main(
            [
                "similarity",
                "--records", str(records),
                "--roster", str(roster),
                "--scores", str(scores),
                "--window-start", truth.window[0].isoformat(),
                "--window-end", truth.window[1].isoformat(),
                "--output", str(series),
            ]
        ) == 0
        assert main(["flag", "--series", str(series)]) == 0
        out = capsys.readouterr().out
        assert truth.viral_day.isoformat() in out
        drivers = base / "drivers.json"
        assert main(
            [
                "lsa",
                "--records", str(records),
                "--roster", str(roster),
                "--scores", str(scores),
                "--series", str(series),
                "--output", str(drivers),
            ]
        ) == 0
        report = json.loads(drivers.read_text())
        days = {event["day"] for event in report["events"]}
        assert truth.viral_day.isoformat() in days

    def test_sample_command(self, staged):
        base, records, _, _, roster, _, scores, _ = staged
        out = base / "coding_sample.csv"
        assert main(
            [
                "sample",
                "--records", str(records),
                "--roster", str(roster),
                "--scores", str(scores),
                "--output", str(out),
                "--per-stratum", "5",
                "--topics", "severity", "facemasks",
            ]
        ) == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert {row["topic"] for row in rows} <= {"severity", "facemasks"}
        for row in rows:
            assert row["cluster"] in {"0", "1", "2"}

    def test_sample_escapes_lone_surrogate_text(self, staged, tmp_path):
        _, records, _, _, roster, _, scores, truth = staged
        hub = next(iter(truth.hubs.values()))[0]
        tweet = {"tweet_id": "s1", "author_id": hub, "text": "covid death rate \ud800 mask",
                 "created_at": f"{truth.window[0].isoformat()}T13:00:00Z"}
        dirty = tmp_path / "records.jsonl"
        dirty.write_text(records.read_text(encoding="utf-8") + json.dumps(tweet) + "\n", encoding="utf-8")
        out = tmp_path / "coding_sample.csv"
        assert main(
            [
                "sample",
                "--records", str(dirty),
                "--roster", str(roster),
                "--scores", str(scores),
                "--output", str(out),
                "--per-stratum", "100000",
                "--topics", "facemasks",
            ]
        ) == 0
        with open(out, encoding="utf-8", newline="") as handle:
            texts = {row["tweet_id"]: row["text"] for row in csv.DictReader(handle)}
        # the escape that write_corpus puts in JSON
        assert texts["s1"] == "covid death rate \\ud800 mask"

    def test_stats_command(self, tmp_path, capsys):
        contingency = tmp_path / "table.csv"
        contingency.write_text(
            "cluster,misinfo,no_misinfo\nleft,52,309\nright,325,57\nfar_right,360,48\n"
        )
        coding = tmp_path / "coding.csv"
        coding.write_text("1,0,1,1\n1,0,1,\n1,0,,1\n")
        assert main(
            ["stats", "--contingency", str(contingency), "--coding", str(coding)]
        ) == 0
        out = capsys.readouterr().out
        assert "statistic=563." in out
        assert "alpha" in out

    def test_stats_requires_input(self, capsys):
        assert main(["stats"]) == 1

    @pytest.mark.parametrize(
        "option, text",
        [
            ("--contingency", "c,m,n\nleft,5,x\nright,3,4\n"),
            ("--coding", "a,b\n"),
        ],
        ids=["contingency-count-not-an-int", "coding-one-coder"],
    )
    def test_stats_malformed_table_is_one_error_line(self, tmp_path, capsys, option, text):
        table = tmp_path / "table.csv"
        table.write_text(text)
        assert main(["stats", option, str(table)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {table}: ")
        assert captured.err.count("\n") == 1

    def test_stats_degenerate_table_keeps_its_error(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("c,m,n\nleft,0,0\nright,3,4\n")
        assert main(["stats", "--contingency", str(table)]) == 1
        assert capsys.readouterr().err == "error: zero marginal row or column\n"

    @pytest.mark.parametrize(
        "ending",
        [["--per-stratum", "0"], ["--per-stratum", "-3"], ["--topics"]],
        ids=["zero-per-stratum", "negative-per-stratum", "no-topics"],
    )
    def test_sample_that_could_pick_nothing_is_a_usage_error(self, staged, tmp_path, ending):
        _, records, _, _, roster, _, scores, _ = staged
        out = tmp_path / "coding_sample.csv"
        argv = ["sample", "--records", str(records), "--roster", str(roster),
                "--scores", str(scores), "--output", str(out), *ending]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert not out.exists()

    def test_sentinels_and_cluster_reports_pinned(self, staged, tmp_path, capsys):
        _, records, edges, partition, _, matrix, *_ = staged
        sentinels = ["sentinels", "--edges", str(edges), "--partition", str(partition),
                     "--output", str(tmp_path / "roster.txt")]
        full = "".join(f"community {c}: 15 sentinels, coverage 1.000\n" for c in range(9))
        assert main(sentinels + ["--records", str(records), "--language-filter", "ascii"]) == 0
        assert capsys.readouterr().out == full
        assert main(sentinels) == 0
        assert capsys.readouterr().out == full
        assert main(sentinels + ["--k", "5"]) == 0
        assert capsys.readouterr().out == "".join(
            f"community {c}: 5 sentinels, coverage {share}\n"
            for c, share in enumerate(
                ["0.391", "0.393", "0.371", "0.375", "0.395", "0.408", "0.386", "0.395", "0.438"]
            )
        )
        assert main(["cluster", "--matrix", str(matrix),
                     "--scores-output", str(tmp_path / "scores.csv")]) == 0
        assert capsys.readouterr().out == (
            "cluster 0: centroid -0.2792 ['6', '7', '8']\n"
            "cluster 1: centroid -0.0114 ['3', '4', '5']\n"
            "cluster 2: centroid 0.2906 ['0', '1', '2']\n"
        )

    def test_ingest_empty_corpus_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("not json\n")
        code = main(["ingest", "--input", str(empty), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err


    def test_graph_skips_ids_that_break_edge_lines(self, tmp_path):
        lines = [
            {"tweet_id": "1", "author_id": "b", "retweeted_author_id": "a"},
            {"tweet_id": "2", "author_id": "c", "retweeted_author_id": "a"},
            {"tweet_id": "3", "author_id": "c", "retweeted_author_id": "b"},
            {"tweet_id": "4", "author_id": "a b", "retweeted_author_id": "a"},
            {"tweet_id": "5", "author_id": "\ud800", "retweeted_author_id": "a"},
        ]
        records = tmp_path / "records.jsonl"
        records.write_text(
            "".join(
                json.dumps({**line, "created_at": "2020-07-01T12:00:00Z", "text": ""}) + "\n"
                for line in lines
            )
        )
        edges, partition = tmp_path / "graph.edges", tmp_path / "partition.txt"
        assert main(["graph", "--records", str(records), "--output", str(edges)]) == 0
        assert edges.read_text() == "a b 1\na c 1\nb c 1\n"
        assert main(["communities", "--edges", str(edges), "--output", str(partition)]) == 0
        assert partition.read_text().split()[::2] == ["a", "b", "c"]

    def test_ingest_window_keeps_what_the_pipeline_ingest_keeps(self, workspace, tmp_path):
        _, corpus, truth = workspace
        start = truth.window[0] + timedelta(days=5)
        end = truth.window[1] - timedelta(days=10)
        out = tmp_path / "records.jsonl"
        argv = ["ingest", "--input", str(corpus), "--output", str(out)]
        assert main(argv + ["--window-start", str(start), "--window-end", str(end)]) == 0
        ingest = STAGES["ingest"].build(
            SimpleNamespace(corpus=corpus, window_start=start, window_end=end)
        )
        write_corpus(ingest.records, tmp_path / "ingest.jsonl")
        assert out.read_bytes() == (tmp_path / "ingest.jsonl").read_bytes()
        assert 0 < len(ingest.records) < len(read_corpus(corpus).records)

    @pytest.mark.parametrize("bound", ["--window-start", "--window-end"])
    def test_ingest_window_bounds_come_together(self, workspace, tmp_path, capsys, bound):
        _, corpus, truth = workspace
        out = tmp_path / "records.jsonl"
        argv = ["ingest", "--input", str(corpus), "--output", str(out)]
        assert main(argv + [bound, str(truth.window[0])]) == 1
        assert "given together" in capsys.readouterr().err
        assert not out.exists()

    def test_ingest_empty_window_errors(self, workspace, tmp_path, capsys):
        _, corpus, truth = workspace
        after = truth.window[1] + timedelta(days=1)
        argv = ["ingest", "--input", str(corpus), "--output", str(tmp_path / "o")]
        assert main(argv + ["--window-start", str(after), "--window-end", str(after)]) == 1
        assert "no records inside the observation window" in capsys.readouterr().err

    def test_ingest_writes_lone_surrogate_text(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(
            json.dumps(
                {"tweet_id": "1", "author_id": "a", "created_at": "2020-07-01T12:00:00Z",
                 "text": "half \ud800 pair"}
            )
            + "\n"
        )
        out = tmp_path / "records.jsonl"
        assert main(["ingest", "--input", str(raw), "--output", str(out)]) == 0
        assert list(read_corpus(out).records.texts) == ["half \ud800 pair"]


# option -> a command that reads its file, with every other input valid
INPUT_FILE_COMMANDS = {
    "--input": ["ingest", "--input", "{file}", "--output", "{out}"],
    "--edges": ["communities", "--edges", "{file}", "--output", "{out}"],
    "--partition": ["sentinels", "--edges", "{edges}", "--partition", "{file}", "--output", "{out}"],
    "--roster": ["topics", "--records", "{records}", "--roster", "{file}", "--output", "{out}"],
    "--roster:rates": [
        "rates", "--records", "{records}", "--roster", "{file}", "--scores", "{scores}",
        "--window-start", "2020-07-01", "--window-end", "2020-07-30", "--output", "{out}",
    ],
    "--scores": [
        "rates", "--records", "{records}", "--roster", "{roster}", "--scores", "{file}",
        "--window-start", "2020-07-01", "--window-end", "2020-07-30", "--output", "{out}",
    ],
    # the two commands that read --records through the ingest build
    "--records:rates": [
        "rates", "--records", "{file}", "--roster", "{roster}", "--scores", "{scores}",
        "--window-start", "2020-07-01", "--window-end", "2020-07-30", "--output", "{out}",
    ],
    "--records:similarity": [
        "similarity", "--records", "{file}", "--roster", "{roster}", "--scores", "{scores}",
        "--window-start", "2020-07-01", "--window-end", "2020-07-30", "--output", "{out}",
    ],
    "--matrix": ["cluster", "--matrix", "{file}", "--scores-output", "{out}"],
    "--series": ["flag", "--series", "{file}"],
    "--series:lsa": [
        "lsa", "--records", "{records}", "--roster", "{roster}", "--scores", "{scores}",
        "--series", "{file}", "--output", "{out}",
    ],
    "--left": ["compare-partitions", "--left", "{file}", "--right", "{partition}"],
    "--right": ["compare-partitions", "--left", "{partition}", "--right", "{file}"],
    "--config": ["run", "--config", "{file}"],
}


@pytest.fixture(scope="module")
def series(staged):
    """A similarity series written by the stage chain."""
    base, records, _, _, roster, _, scores, truth = staged
    path = base / "series.csv"
    assert main(
        [
            "similarity",
            "--records", str(records),
            "--roster", str(roster),
            "--scores", str(scores),
            "--window-start", truth.window[0].isoformat(),
            "--window-end", truth.window[1].isoformat(),
            "--output", str(path),
        ]
    ) == 0
    return path


class TestCliSurface:
    def test_options_keep_their_strings_defaults_required_flags_and_choices(self):
        (action,) = (
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        helps = {choice.dest: choice.help for choice in action._choices_actions}
        assert action.choices.keys() == CLI_SURFACE.keys()
        for command, parser in action.choices.items():
            options = {
                "/".join(option.option_strings): (
                    option.default, option.required, option.choices, option.help
                )
                for option in parser._actions
                if not isinstance(option, argparse._HelpAction)
            }
            assert (helps[command], options) == CLI_SURFACE[command], command


SCORED = ["--records", "{records}", "--roster", "{roster}", "--scores", "{scores}"]
WINDOW = ["--window-start", "2020-07-01", "--window-end", "2020-07-30"]
# command -> its arguments but the output options, and its output options
OUTPUT_COMMANDS = {
    "ingest": (["--input", "{corpus}"], ["--output"]),
    "graph": (["--records", "{records}"], ["--output"]),
    "communities": (["--edges", "{edges}"], ["--output"]),
    "sentinels": (["--edges", "{edges}", "--partition", "{partition}"], ["--output"]),
    "domains": (["--records", "{records}", "--roster", "{roster}"], ["--output"]),
    "cluster": (["--matrix", "{matrix}"], ["--scores-output", "--loadings-output"]),
    "topics": (["--records", "{records}", "--roster", "{roster}"], ["--output"]),
    "rates": (SCORED + WINDOW, ["--output", "--daily-output"]),
    "similarity": (SCORED + WINDOW, ["--output"]),
    "lsa": (SCORED + ["--series", "{series}"], ["--output"]),
    "sample": (SCORED, ["--output"]),
}
OUTPUT_OPTIONS = [(c, option) for c, (_, outputs) in OUTPUT_COMMANDS.items() for option in outputs]


class TestOutputFiles:
    def test_every_output_option_is_listed(self):
        assert set(OUTPUT_OPTIONS) == {
            (command, option)
            for command, (_, surface) in CLI_SURFACE.items()
            for option in surface
            if option.endswith("output")
        }

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command,option", OUTPUT_OPTIONS)
    def test_unwritable_output_is_a_usage_error(
        self, workspace, staged, series, tmp_path, capsys, command, option, where
    ):
        _, corpus, _ = workspace
        _, records, edges, partition, roster, matrix, scores, _ = staged
        paths = {"corpus": corpus, "records": records, "edges": edges, "partition": partition,
                 "roster": roster, "matrix": matrix, "scores": scores, "series": series}
        arguments, outputs = OUTPUT_COMMANDS[command]
        bad = tmp_path / "missing" / "out"
        if where == "directory":
            bad = tmp_path / "directory"
            bad.mkdir()
        argv = [command, *(arg.format(**paths) for arg in arguments)]
        for output in outputs:
            argv += [output, str(bad if output == option else tmp_path / output.strip("-"))]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert f"cannot write {bad}" in capsys.readouterr().err
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []


class TestInputFiles:
    def command(self, staged, option, file, tmp_path):
        base, records, edges, partition, roster, _, scores, _ = staged
        paths = {"file": file, "out": tmp_path / "out", "records": records, "edges": edges,
                 "partition": partition, "roster": roster, "scores": scores}
        return [arg.format(**paths) for arg in INPUT_FILE_COMMANDS[option]]

    @pytest.mark.parametrize("option", sorted(INPUT_FILE_COMMANDS))
    def test_missing_file_is_a_usage_error(self, staged, option, tmp_path, capsys):
        missing = tmp_path / "missing"
        with pytest.raises(SystemExit) as exited:
            main(self.command(staged, option, missing, tmp_path))
        assert exited.value.code == 2
        assert f"path not found: {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("option", sorted(INPUT_FILE_COMMANDS))
    def test_directory_is_a_usage_error(self, staged, option, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(self.command(staged, option, tmp_path, tmp_path))
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "not a regular file" in err and str(tmp_path) in err

    @pytest.mark.parametrize("option", sorted(INPUT_FILE_COMMANDS))
    def test_malformed_file_is_one_error_line(self, staged, option, tmp_path, capsys):
        # no JSON, no key=value line, no line of two or three fields, and no
        # CSV row of two or more cells
        malformed = tmp_path / "malformed"
        malformed.write_text("a b c d\nx\n", encoding="utf-8")
        assert main(self.command(staged, option, malformed, tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {malformed}: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "option",
        ["--roster:rates", "--partition", "--series", "--series:lsa", "--scores", "--matrix"],
    )
    def test_repeated_key_is_one_error_line(self, staged, series, option, tmp_path, capsys):
        # read silently, a repeated account would count twice in the rates,
        # a repeated series day would enter the burst history, a repeated
        # score would keep its last row, and a repeated matrix row would
        # enter the PCA twice
        _, _, _, partition, roster, matrix, scores, _ = staged
        source = {
            "--roster:rates": roster,
            "--partition": partition,
            "--scores": scores,
            "--matrix": matrix,
        }.get(option, series)
        lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
        repeated = tmp_path / "repeated"
        repeated.write_text("".join(lines + lines[-1:]), encoding="utf-8")
        assert main(self.command(staged, option, repeated, tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {repeated}: ")
        assert "listed twice" in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestScoresCoverage:
    @pytest.mark.parametrize("command", ["rates", "similarity", "lsa", "sample"])
    def test_scores_without_a_roster_community_is_one_error_line(
        self, staged, series, tmp_path, capsys, command
    ):
        # read silently, a community without a cluster is a KeyError, or
        # drops out of the similarity series
        _, records, _, _, roster, _, scores, _ = staged
        header, *rows = scores.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [row for row in rows if not row.rstrip().endswith(",0")]
        dropped = sorted(row.split(",")[0] for row in rows if row not in kept)
        assert dropped and kept
        partial = tmp_path / "partial.csv"
        partial.write_text(header + "".join(kept), encoding="utf-8")
        paths = {"records": records, "roster": roster, "scores": partial, "series": series}
        arguments, outputs = OUTPUT_COMMANDS[command]
        argv = [command, *(arg.format(**paths) for arg in arguments)]
        argv += [outputs[0], str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot read {partial}: no cluster for roster communities "
            f"{' '.join(dropped)}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_scores_without_a_series_cluster_is_one_error_line(
        self, staged, series, tmp_path, capsys
    ):
        _, records, _, _, roster, _, scores, _ = staged
        header, *rows = scores.read_text(encoding="utf-8").splitlines(keepends=True)
        # every community kept, cluster 2 merged into cluster 1
        merged = tmp_path / "merged.csv"
        merged.write_text(
            header + "".join(row.replace(",2\n", ",1\n") for row in rows), encoding="utf-8"
        )
        argv = ["lsa", "--records", str(records), "--roster", str(roster),
                "--scores", str(merged), "--series", str(series),
                "--output", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot read {merged}: no community in --series clusters 2\n"
        )
        assert not (tmp_path / "out").exists()


class TestStageDefaults:
    def test_config_options_default_as_in_the_config(self):
        defaults = {
            field.name: None if field.default is MISSING else field.default
            for field in fields(PipelineConfig)
        }
        defaults.update(PACKAGED)
        (commands,) = (
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        seen = set()
        for command, parser in commands.items():
            for action in parser._actions:
                if action.dest not in defaults:
                    continue
                seen.add(action.dest)
                expected = defaults[action.dest]
                if (command, action.dest) == ("sentinels", "language_filter"):
                    expected = "none"  # the ascii filter needs the optional --records
                assert parser.get_default(action.dest) == expected, (command, action.dest)
        assert "burst_threshold" in {action.dest for action in commands["flag"]._actions}
        assert seen == defaults.keys() - {"output_dir", "adf_alpha"}

    @pytest.mark.parametrize(
        "command,flag,value,field",
        [
            ("flag", "--threshold", "-1", "burst_threshold"),
            ("flag", "--threshold", "nan", "burst_threshold"),
            ("flag", "--threshold", "inf", "burst_threshold"),
            ("flag", "--min-history", "0", "min_history"),
            ("lsa", "--match-threshold", "5", "match_threshold"),
            ("sentinels", "--english-threshold", "7", "english_threshold"),
        ],
    )
    def test_out_of_range_option_is_a_usage_error(
        self, tmp_path, capsys, command, flag, value, field
    ):
        for name in ("corpus.jsonl", "s.csv", "r", "s", "e", "p"):
            (tmp_path / name).touch()
        corpus, series, roster, scores, edges, partition = (
            str(tmp_path / name) for name in ("corpus.jsonl", "s.csv", "r", "s", "e", "p")
        )
        required = {
            "flag": ["--series", series],
            "lsa": ["--records", corpus, "--roster", roster, "--scores", scores,
                    "--series", series, "--output", "o"],
            "sentinels": ["--edges", edges, "--partition", partition, "--output", "o"],
        }[command]
        parser = build_parser()
        args = parser.parse_args([command, *required])
        assert getattr(args, field) == PipelineConfig.__dataclass_fields__[field].default
        with pytest.raises(SystemExit) as exited:
            parser.parse_args([command, *required, flag, value])
        assert exited.value.code == 2
        assert f"{field} must be" in capsys.readouterr().err


class TestCliMatchesPipeline:
    def test_stage_chain_reproduces_pipeline_artifacts(self, workspace, tmp_path):
        _, corpus, truth = workspace
        self.assert_chain_matches_pipeline(corpus, truth, tmp_path)

    def test_chain_from_windowed_ingest_reproduces_pipeline_artifacts(
        self, workspace, spilled_corpus, tmp_path
    ):
        # the corpus reaches outside the window and holds a second component
        _, _, truth = workspace
        window = [
            "--window-start", truth.window[0].isoformat(),
            "--window-end", truth.window[1].isoformat(),
        ]
        self.assert_chain_matches_pipeline(spilled_corpus, truth, tmp_path, window)

    def assert_chain_matches_pipeline(self, corpus, truth, tmp_path, ingest_window=()):
        """The stage chain, from ingest with ``ingest_window``, writes run_pipeline's bytes."""
        config = PipelineConfig(
            corpus=corpus,
            output_dir=tmp_path / "pipeline",
            window_start=truth.window[0],
            window_end=truth.window[1],
            split=truth.split,
        )
        run_pipeline(config)
        out = tmp_path / "cli"
        out.mkdir()
        path = {name: str(out / name) for name in ("records.jsonl", *CLI_ARTIFACTS)}
        window = [
            "--window-start", config.window_start.isoformat(),
            "--window-end", config.window_end.isoformat(),
        ]
        sentinel_inputs = [
            "--records", path["records.jsonl"],
            "--roster", path["sentinels.txt"],
        ]
        scored_inputs = sentinel_inputs + ["--scores", path["domain_scores.csv"]]
        burst = [
            "--threshold", str(config.burst_threshold),
            "--min-history", str(config.min_history),
        ]
        chain = [
            ["ingest", "--input", str(corpus), "--output", path["records.jsonl"]]
            + list(ingest_window),
            ["graph", "--records", path["records.jsonl"], "--output", path["graph.edges"]],
            [
                "communities",
                "--edges", path["graph.edges"],
                "--output", path["partition.txt"],
                "--seed", str(config.seed),
            ],
            [
                "sentinels",
                "--edges", path["graph.edges"],
                "--partition", path["partition.txt"],
                "--output", path["sentinels.txt"],
                "--records", path["records.jsonl"],
                "--k", str(config.sentinel_k),
                "--top-m", str(config.top_m),
                "--language-filter", config.language_filter,
                "--english-threshold", str(config.english_threshold),
                "--seed", str(config.seed),
            ],
            [
                "domains",
                *sentinel_inputs,
                "--output", path["domain_matrix.csv"],
                "--split", config.split.isoformat(),
                "--min-count", str(config.domain_min_count),
            ],
            [
                "cluster",
                "--matrix", path["domain_matrix.csv"],
                "--scores-output", path["domain_scores.csv"],
                "--loadings-output", path["domain_loadings.csv"],
                "--clusters", str(config.score_clusters),
            ],
            ["topics", *sentinel_inputs, "--output", path["topic_counts.csv"]],
            [
                "rates",
                *scored_inputs,
                *window,
                "--output", path["rates.csv"],
                "--daily-output", path["rates_daily.csv"],
            ],
            ["similarity", *scored_inputs, *window, *burst, "--output", path["similarity.csv"]],
            [
                "lsa",
                *scored_inputs,
                *burst,
                "--series", path["similarity.csv"],
                "--output", path["lsa_drivers.json"],
                "--k", str(config.lsa_k),
                "--match-threshold", str(config.match_threshold),
            ],
        ]
        for argv in chain:
            assert main(argv) == 0, argv
        for name in CLI_ARTIFACTS:
            expected = (config.output_dir / name).read_bytes()
            assert (out / name).read_bytes() == expected, name
        # the pipeline keeps its ingest in memory; the CLI writes the same records
        ingest = STAGES["ingest"].build(
            SimpleNamespace(
                corpus=corpus, window_start=config.window_start, window_end=config.window_end
            )
        )
        write_corpus(ingest.records, tmp_path / "ingest.jsonl")
        assert (out / "records.jsonl").read_bytes() == (tmp_path / "ingest.jsonl").read_bytes()


class TestRunCommand:
    def test_run_from_config(self, workspace, tmp_path, capsys):
        base, corpus, truth = workspace
        config = PipelineConfig(
            corpus=corpus,
            output_dir=tmp_path / "out",
            window_start=truth.window[0],
            window_end=truth.window[1],
            split=truth.split,
        )
        config_path = tmp_path / "run.cfg"
        config_path.write_text(serialize_config(config))
        assert main(["run", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "communities: 9" in out
        assert (tmp_path / "out" / "similarity.csv").exists()

    def test_env_override_applies(self, workspace, tmp_path, monkeypatch, capsys):
        base, corpus, truth = workspace
        config = PipelineConfig(
            corpus=corpus,
            output_dir=tmp_path / "default_out",
            window_start=truth.window[0],
            window_end=truth.window[1],
            split=truth.split,
        )
        config_path = tmp_path / "run.cfg"
        config_path.write_text(serialize_config(config))
        override = tmp_path / "override_out"
        monkeypatch.setenv("SENTINEL_OUTPUT_DIR", str(override))
        assert main(["run", "--config", str(config_path)]) == 0
        assert override.exists()

    @pytest.mark.parametrize("manifest", ["{trunc", "[1, 2]"], ids=["not-json", "a-list"])
    def test_rerun_over_a_manifest_that_is_no_object(self, workspace, tmp_path, manifest):
        base, corpus, truth = workspace
        out = tmp_path / "out"
        config_path = tmp_path / "run.cfg"
        config_path.write_text(serialize_config(PipelineConfig(
            corpus=corpus, output_dir=out, window_start=truth.window[0],
            window_end=truth.window[1], split=truth.split,
        )))
        assert main(["run", "--config", str(config_path)]) == 0
        fresh = {path.name: path.read_bytes() for path in out.iterdir()}
        (out / "manifest.json").write_text(manifest)
        past = 1_000_000_000_000_000_000
        for path in out.iterdir():
            os.utime(path, ns=(past, past))
        assert main(["run", "--config", str(config_path)]) == 0
        # no stage counts as done: every file is written again, with the fresh run's bytes
        assert all(path.stat().st_mtime_ns != past for path in out.iterdir())
        assert {path.name: path.read_bytes() for path in out.iterdir()} == fresh

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_output_dir_that_cannot_be_a_directory_is_one_error_line(
        self, workspace, tmp_path, capsys, under
    ):
        base, corpus, truth = workspace
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        config_path = tmp_path / "run.cfg"
        config_path.write_text(serialize_config(PipelineConfig(
            corpus=corpus, output_dir=blocker / "out" if under else blocker,
            window_start=truth.window[0], window_end=truth.window[1], split=truth.split,
        )))
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{blocker} is not a directory\n")
        assert err.count("\n") == 1
        assert blocker.read_text() == "kept"

    def test_manifest_that_is_no_regular_file_is_one_error_line(self, workspace, tmp_path, capsys):
        base, corpus, truth = workspace
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        config_path = tmp_path / "run.cfg"
        config_path.write_text(serialize_config(PipelineConfig(
            corpus=corpus, output_dir=out, window_start=truth.window[0],
            window_end=truth.window[1], split=truth.split,
        )))
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {config_path}: output_dir {out}: {out / 'manifest.json'} "
            "is not a regular file\n"
        )
        # the run failed before any stage
        assert [path.name for path in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("sentinel_k=0", "sentinel_k must be positive"),
            ("window_end=2020-06-01", "window_start is after window_end"),
        ],
    )
    def test_config_value_that_breaks_a_rule_is_named_with_the_rule(
        self, workspace, tmp_path, capsys, line, message
    ):
        base, corpus, truth = workspace
        config_path = tmp_path / "run.cfg"
        config_path.write_text(serialize_config(PipelineConfig(
            corpus=corpus, output_dir=tmp_path / "out", window_start=truth.window[0],
            window_end=truth.window[1], split=truth.split,
        )) + line + "\n")
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == f"error: {config_path}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["seed=many", "no equals sign"])
    def test_config_that_does_not_parse_cannot_be_read(self, workspace, tmp_path, capsys, line):
        base, corpus, truth = workspace
        config_path = tmp_path / "run.cfg"
        config_path.write_text(serialize_config(PipelineConfig(
            corpus=corpus, output_dir=tmp_path / "out", window_start=truth.window[0],
            window_end=truth.window[1], split=truth.split,
        )) + line + "\n")
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {config_path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, text",
        [
            ("contingency", "c,m,n\nleft,5,x\nright,3,4\n"),
            ("coding", "a,b\n"),
        ],
        ids=["contingency-count-not-an-int", "coding-one-coder"],
    )
    def test_malformed_stats_table_of_a_run_is_one_error_line(
        self, workspace, tmp_path, capsys, field, text
    ):
        base, corpus, truth = workspace
        table = tmp_path / "table.csv"
        table.write_text(text)
        config_path = tmp_path / "run.cfg"
        config_path.write_text(serialize_config(PipelineConfig(
            corpus=corpus, output_dir=tmp_path / "out", window_start=truth.window[0],
            window_end=truth.window[1], split=truth.split, **{field: table},
        )))
        assert main(["run", "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {table}: ")
        assert captured.err.count("\n") == 1
