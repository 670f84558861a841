import argparse
import csv
import json
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


@pytest.fixture(scope="module")
def workspace(default_corpus, tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    records, truth = default_corpus
    corpus = base / "corpus.jsonl"
    write_corpus(records, corpus)
    return base, corpus, truth


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
        assert read_corpus(out).records.texts == ["half \ud800 pair"]


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
    "--left": ["compare-partitions", "--left", "{file}", "--right", "{partition}"],
    "--right": ["compare-partitions", "--left", "{partition}", "--right", "{file}"],
    "--config": ["run", "--config", "{file}"],
}


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

    @pytest.mark.parametrize("option", ["--roster:rates", "--partition"])
    def test_repeated_key_is_one_error_line(self, staged, option, tmp_path, capsys):
        # read silently, a repeated account would count twice in the rates
        _, _, _, partition, roster, *_ = staged
        source = {"--roster:rates": roster, "--partition": partition}[option]
        lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
        repeated = tmp_path / "repeated"
        repeated.write_text("".join(lines + lines[:1]), encoding="utf-8")
        assert main(self.command(staged, option, repeated, tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {repeated}: ")
        assert "listed twice" in captured.err
        assert captured.err.count("\n") == 1
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
            ["ingest", "--input", str(corpus), "--output", path["records.jsonl"]],
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
