from dataclasses import MISSING, fields, replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

from sentinet.config import (
    PipelineConfig,
    load_config,
    parse_config,
    serialize_config,
    validate_config,
    write_config,
)
from sentinet.errors import ConfigError


def minimal_text(corpus: Path, out: Path) -> str:
    return (
        f"corpus={corpus}\n"
        f"output_dir={out}\n"
        "window_start=2020-07-01\n"
        "window_end=2020-07-30\n"
        "split=2020-07-21T00:00:00Z\n"
    )


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"x": 1}\n')
    return path


class TestParseConfig:
    def test_minimal(self, tmp_path, corpus_file):
        config = parse_config(minimal_text(corpus_file, tmp_path / "out"), env={})
        assert config.window_start == date(2020, 7, 1)
        assert config.split == datetime(2020, 7, 21, tzinfo=timezone.utc)
        assert config.seed == 13
        assert config.sentinel_k == 15

    def test_comments_and_blank_lines(self, tmp_path, corpus_file):
        text = "# a comment\n\n" + minimal_text(corpus_file, tmp_path / "out")
        assert parse_config(text, env={}).top_m == 50

    def test_unknown_key(self, tmp_path, corpus_file):
        text = minimal_text(corpus_file, tmp_path / "out") + "nonsense=1\n"
        with pytest.raises(ConfigError):
            parse_config(text, env={})

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            parse_config("seed=5\n", env={})

    def test_env_override(self, tmp_path, corpus_file):
        text = minimal_text(corpus_file, tmp_path / "out") + "seed=5\n"
        config = parse_config(text, env={"SENTINEL_SEED": "99"})
        assert config.seed == 99

    @pytest.mark.parametrize(
        "variable", ["SENTINEL_BURST_TRESHOLD", "SENTINEL_LINKAGE", "SENTINEL_seed"]
    )
    def test_unknown_env_variable_rejected(self, tmp_path, corpus_file, variable):
        text = minimal_text(corpus_file, tmp_path / "out")
        with pytest.raises(ConfigError, match=variable):
            parse_config(text, env={variable: "9"})

    def test_only_optional_keys_may_be_empty(self, tmp_path, corpus_file):
        text = minimal_text(corpus_file, tmp_path / "out")
        config = parse_config(text + "anchor_domain=\nstopwords= \n", env={})
        assert config.anchor_domain is None and config.stopwords is None
        with pytest.raises(ConfigError, match="seed"):
            parse_config(text + "seed=\n", env={})

    @pytest.mark.parametrize("name", ["corpus", "output_dir", "window_start", "language_filter"])
    def test_required_key_may_not_be_empty(self, tmp_path, corpus_file, name):
        # an empty path would be the config file's own directory
        path = tmp_path / "run.cfg"
        path.write_text(minimal_text(corpus_file, tmp_path / "out") + f"{name}=\n")
        with pytest.raises(ConfigError, match=f"bad value for '{name}': empty value"):
            load_config(path, env={})

    @pytest.mark.parametrize(
        "name, kind", [("corpus", "regular file"), ("stopwords", "regular file"),
                       ("lexicon_dir", "directory")]
    )
    def test_input_path_of_the_wrong_kind_rejected(self, tmp_path, corpus_file, name, kind):
        text = minimal_text(corpus_file, tmp_path / "out")
        wrong = corpus_file if kind == "directory" else tmp_path
        with pytest.raises(ConfigError, match=f"{name} {wrong} is not a {kind}"):
            parse_config(text + f"{name}={wrong}\n", env={})
        right = tmp_path if kind == "directory" else corpus_file
        assert getattr(parse_config(text + f"{name}={right}\n", env={}), name) == right

    def test_split_outside_window(self, tmp_path, corpus_file):
        text = minimal_text(corpus_file, tmp_path / "out").replace(
            "split=2020-07-21T00:00:00Z", "split=2020-09-01T00:00:00Z"
        )
        with pytest.raises(ConfigError):
            parse_config(text, env={})

    def test_nonpositive_count_rejected(self, tmp_path, corpus_file):
        text = minimal_text(corpus_file, tmp_path / "out") + "sentinel_k=0\n"
        with pytest.raises(ConfigError):
            parse_config(text, env={})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("burst_threshold", "-1"),
            ("burst_threshold", "0"),
            ("burst_threshold", "inf"),
            ("match_threshold", "5"),
            ("match_threshold", "0"),
            ("match_threshold", "nan"),
            ("english_threshold", "7"),
            ("english_threshold", "-0.5"),
        ],
    )
    def test_out_of_range_float_rejected(self, tmp_path, corpus_file, name, value):
        path = tmp_path / "run.cfg"
        write_config(parse_config(minimal_text(corpus_file, tmp_path / "out"), env={}), path)
        load_config(path, env={})
        with pytest.raises(ConfigError, match=name):
            load_config(path, env={f"SENTINEL_{name.upper()}": value})

    def test_float_range_bounds_accepted(self, tmp_path, corpus_file):
        text = minimal_text(corpus_file, tmp_path / "out")
        for env in (
            {"SENTINEL_MATCH_THRESHOLD": "1", "SENTINEL_ENGLISH_THRESHOLD": "0"},
            {"SENTINEL_BURST_THRESHOLD": "0.01", "SENTINEL_ENGLISH_THRESHOLD": "1"},
        ):
            parse_config(text, env=env)

    def test_missing_corpus_rejected(self, tmp_path):
        text = minimal_text(tmp_path / "ghost.jsonl", tmp_path / "out")
        with pytest.raises(ConfigError):
            parse_config(text, env={})

    @pytest.mark.parametrize(
        "split", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"]
    )
    def test_split_outside_datetime_range(self, tmp_path, corpus_file, split):
        text = minimal_text(corpus_file, tmp_path / "out").replace(
            "split=2020-07-21T00:00:00Z", f"split={split}"
        )
        with pytest.raises(ConfigError, match="split"):
            parse_config(text, env={})

    def test_bad_adf_alpha(self, tmp_path, corpus_file):
        text = minimal_text(corpus_file, tmp_path / "out") + "adf_alpha=0.2\n"
        with pytest.raises(ConfigError):
            parse_config(text, env={})

    def test_roundtrip(self, tmp_path, corpus_file):
        original = parse_config(
            minimal_text(corpus_file, tmp_path / "out")
            + "anchor_domain=foxnews.com\nburst_threshold=2.5\n",
            env={},
        )
        path = tmp_path / "config.cfg"
        write_config(original, path)
        reloaded = load_config(path, env={})
        assert reloaded == original

    def test_split_checked_on_the_utc_day_the_file_writes(self, tmp_path, corpus_file):
        # 22:00 on the window's last day at UTC-5 is 03:00 the next day in
        # UTC, as the file writes it: rejected, not accepted and then
        # unloadable from its own file
        base = parse_config(minimal_text(corpus_file, tmp_path / "out"), env={})
        late = replace(base, split=datetime(2020, 7, 30, 22, tzinfo=timezone(timedelta(hours=-5))))
        with pytest.raises(ConfigError, match="outside the observation window"):
            validate_config(late)
        # at UTC+5 the same wall time is 17:00 UTC that day, and loads back
        early = replace(base, split=late.split.replace(tzinfo=timezone(timedelta(hours=5))))
        validate_config(early)
        path = tmp_path / "config.cfg"
        write_config(early, path)
        assert load_config(path, env={}) == early

    @pytest.mark.parametrize(
        "window, split",
        [
            ("0001-01-01", "0001-01-01T00:00:00Z"),
            ("0999-05-01", "0999-05-01T12:30:00Z"),
            ("9999-12-31", "9999-12-31T23:59:59Z"),
        ],
    )
    def test_four_digit_years_round_trip(self, tmp_path, corpus_file, window, split):
        text = (
            minimal_text(corpus_file, tmp_path / "out")
            .replace("2020-07-01", window)
            .replace("2020-07-30", window)
            .replace("split=2020-07-21T00:00:00Z", f"split={split}")
        )
        original = parse_config(text, env={})
        serialized = serialize_config(original)
        assert f"split={split}\n" in serialized
        assert parse_config(serialized, env={}) == original

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "corpus.jsonl").write_text("{}\n")
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            "corpus=corpus.jsonl\noutput_dir=out\n"
            "window_start=2020-07-01\nwindow_end=2020-07-30\n"
            "split=2020-07-15T00:00:00Z\n"
        )
        config = load_config(config_path, env={})
        assert config.corpus == tmp_path / "corpus.jsonl"
        assert config.output_dir == tmp_path / "out"

    def test_serialize_contains_all_fields(self, tmp_path, corpus_file):
        config = parse_config(minimal_text(corpus_file, tmp_path / "out"), env={})
        text = serialize_config(config)
        for name in ("corpus", "seed", "burst_threshold", "adf_alpha"):
            assert f"{name}=" in text

    @pytest.mark.parametrize("paths_set", [True, False], ids=["paths-set", "paths-unset"])
    def test_every_field_roundtrips_as_its_annotated_type(self, tmp_path, corpus_file, paths_set):
        paths = {}
        if paths_set:
            for name in ("stopwords", "shorteners", "coding", "contingency"):
                paths[name] = tmp_path / f"{name}.txt"
                paths[name].write_text("x\n")
            paths["lexicon_dir"] = tmp_path / "lexicons"
            paths["lexicon_dir"].mkdir()
        config = PipelineConfig(
            corpus=corpus_file,
            output_dir=tmp_path / "out",
            window_start=date(2020, 6, 2),
            window_end=date(2020, 8, 30),
            split=datetime(2020, 7, 21, 22, 30, 5, tzinfo=timezone(timedelta(hours=-4))),
            seed=7,
            sentinel_k=4,
            top_m=9,
            domain_min_count=3,
            score_clusters=2,
            burst_threshold=2.5,
            min_history=5,
            lsa_k=3,
            match_threshold=0.25,
            anchor_domain="foxnews.com",
            adf_alpha=0.01,
            language_filter="none",
            english_threshold=0.75,
            **paths,
        )
        unset = {"stopwords", "shorteners", "lexicon_dir", "coding", "contingency"} - paths.keys()
        for field in fields(PipelineConfig):
            if field.default is not MISSING and field.name not in unset:
                assert getattr(config, field.name) != field.default, field.name
        parsed = parse_config(serialize_config(config), env={})
        assert parsed == config
        hints = get_type_hints(PipelineConfig)
        for field in fields(PipelineConfig):
            value = getattr(parsed, field.name)
            assert isinstance(value, get_args(hints[field.name]) or hints[field.name]), field.name
            assert (value is None) == (field.name in unset), field.name
