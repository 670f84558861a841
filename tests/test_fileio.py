import pytest

from sentinet.ingest import write_corpus


class TestAtomicWrites:
    def test_writer_failing_halfway_keeps_previous_artifact(self, tmp_path, record_factory):
        path = tmp_path / "records.jsonl"
        write_corpus([record_factory("1", "a")], path)
        before = path.read_bytes()

        def records():
            yield record_factory("2", "b")
            raise RuntimeError("source failed mid-stream")

        with pytest.raises(RuntimeError):
            write_corpus(records(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]
