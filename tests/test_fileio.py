import numpy as np
import pytest

from conftest import corpus_of
from sentinet.fileio import read_csv, write_csv
from sentinet.ingest import write_corpus


class TestAtomicWrites:
    def test_writer_failing_halfway_keeps_previous_artifact(self, tmp_path, record_factory):
        path = tmp_path / "records.jsonl"
        write_corpus(corpus_of([record_factory("1", "a")]), path)
        before = path.read_bytes()
        corpus = corpus_of([record_factory("2", "b"), record_factory("3", "c")])
        # JSON cannot hold the second row's author: the write fails after one line
        corpus.accounts[1] = object()
        with pytest.raises(TypeError):
            write_corpus(corpus, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]


class TestCsv:
    def test_cells_are_written_in_the_table_convention(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [
            [None, 0.1 + 0.2, np.float64(0.1) + np.float64(0.2), 1e-05, 7],
            ["a,b", 'say "hi"', "two\nlines", np.float64(1e-05), -3],
        ]
        write_csv(path, ["missing", "sum", "np_sum", "small", "count"], rows)
        assert path.read_bytes().decode() == (
            "missing,sum,np_sum,small,count\n"
            f",{0.1 + 0.2!r},{0.1 + 0.2!r},{1e-05!r},7\n"
            '"a,b","say ""hi""","two\nlines",1e-05,-3\n'
        )
        assert read_csv(path) == [
            ["missing", "sum", "np_sum", "small", "count"],
            ["", "0.30000000000000004", "0.30000000000000004", "1e-05", "7"],
            ["a,b", 'say "hi"', "two\nlines", "1e-05", "-3"],
        ]
