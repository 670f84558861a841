from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

from sentinet.fileio import is_field
from sentinet.graph import RetweetGraph
from sentinet.ingest import (
    CountMatrix,
    Corpus,
    TrigramEncoder,
    format_timestamp,
    parse_tweet_stream,
)
from sentinet.sentinel import activity
from sentinet.similarity import DayDocs
from sentinet.synthetic import SyntheticSpec, generate_corpus

BASE_TIME = datetime(2020, 7, 1, 12, 0, 0, tzinfo=timezone.utc)


def make_record(
    tweet_id: str,
    author: str,
    text: str = "covid update",
    retweeted: str | None = None,
    day_offset: int = 0,
    urls: tuple[str, ...] = (),
) -> dict:
    """One tweet's JSON object, ``day_offset`` days after BASE_TIME."""
    return {
        "tweet_id": tweet_id,
        "author_id": author,
        "created_at": format_timestamp(BASE_TIME + timedelta(days=day_offset)),
        "text": text,
        "retweeted_author_id": retweeted,
        "urls": list(urls),
    }


def corpus_of(records) -> Corpus:
    """The corpus parsed from the JSON lines of tweet objects, in their order.

    No records give the empty corpus, as no rows taken of a parsed one.
    """
    lines = [json.dumps(record) for record in records]
    if not lines:
        return corpus_of([make_record("0", "nobody")]).take(np.arange(0))
    return parse_tweet_stream(lines).records


def rows_of(corpus: Corpus) -> list[dict]:
    """Each row of a corpus as its tweet's JSON object, as write_corpus writes it."""
    return [
        {
            "tweet_id": corpus.tweet_ids[row],
            "author_id": corpus.accounts[corpus.author[row]],
            "created_at": format_timestamp(corpus.created_at(row)),
            "text": corpus.texts[row],
            "retweeted_author_id": (
                corpus.accounts[corpus.retweeted[row]] if corpus.retweeted[row] >= 0 else None
            ),
            "urls": list(corpus.urls[corpus.url_offsets[row] : corpus.url_offsets[row + 1]]),
        }
        for row in range(len(corpus))
    ]


def grouped_corpus(records_by_group):
    """The corpus of every group's records, group after group, and each group's rows of it."""
    corpus = corpus_of(record for records in records_by_group.values() for record in records)
    ends = np.cumsum([len(records) for records in records_by_group.values()], dtype=int)
    return corpus, {
        group: np.arange(end - len(records), end)
        for (group, records), end in zip(records_by_group.items(), ends.tolist())
    }


def activity_of(records_by_account, window):
    """Account -> its :func:`activity` entry, over a corpus of all their records."""
    corpus, _ = grouped_corpus(records_by_account)
    accounts = list(records_by_account)
    return dict(zip(accounts, activity(corpus, accounts, window).tolist()))


def columns(corpus: Corpus):
    """Every column of a corpus as plain lists, for comparison."""
    return (
        corpus.tweet_ids,
        corpus.texts,
        corpus.accounts,
        corpus.author.tolist(),
        corpus.retweeted.tolist(),
        corpus.seconds.tolist(),
        corpus.url_offsets.tolist(),
        corpus.urls,
        [
            array.dtype.name
            for array in (corpus.author, corpus.retweeted, corpus.seconds, corpus.url_offsets)
        ],
    )


def count_matrix(matrix) -> CountMatrix:
    """The :class:`CountMatrix` of a dense array or a scipy sparse matrix."""
    csr = sp.csr_matrix(matrix)
    csr.sort_indices()
    return CountMatrix(
        csr.data.astype(float), csr.indices.astype(np.intp), csr.indptr.astype(np.intp), csr.shape
    )


def scipy_of(matrix: CountMatrix) -> sp.csr_matrix:
    """A :class:`CountMatrix` as the scipy CSR matrix of the same arrays, a reference."""
    return sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


def decoded_counts(token_docs, stopwords=frozenset()):
    """The token streams' summed trigram counts, keyed by trigram, stopwords dropped."""
    encoder = TrigramEncoder(stopwords)
    matrix, codes = encoder.count(token_docs)
    return dict(zip(encoder.decode(codes), scipy_of(matrix).sum(axis=0).A1.tolist()))


def decoded_rows(day_counts, encoder: TrigramEncoder):
    """Each community-day's row of its day's matrix, keyed by (token, token, token).

    ``day_counts`` is what :func:`community_day_counts` yields, and
    ``encoder`` the one it counted with. Counts stay the matrix's floats,
    so a non-integer count fails an equality with integer counts.
    """
    rows = {}
    for day, communities, matrix, codes in day_counts:
        for row, community in enumerate(communities):
            start, end = matrix.indptr[row], matrix.indptr[row + 1]
            trigrams = encoder.decode(codes[matrix.indices[start:end]])
            rows[(community, day)] = dict(zip(trigrams, matrix.data[start:end].tolist()))
    return rows


def day_docs_of(docs) -> dict:
    """Day -> :class:`DayDocs` of the code-keyed :class:`CommunityDayDoc` values of
    ``docs``, keyed by (community, day); one matrix row per doc, in mapping order."""
    by_day: dict = {}
    for (community, day), doc in docs.items():
        by_day.setdefault(day, {})[community] = doc.trigram_counts
    built = {}
    for day, counts in by_day.items():
        codes = np.unique(
            np.array([code for row in counts.values() for code in row], dtype=np.int64)
        )
        rows = [sorted(row.items()) for row in counts.values()]
        matrix = CountMatrix(
            np.array([count for row in rows for _, count in row], dtype=float),
            np.searchsorted(codes, [code for row in rows for code, _ in row]),
            np.cumsum([0] + [len(row) for row in rows]),
            (len(rows), codes.size),
        )
        built[day] = DayDocs.from_rows(counts, matrix)
    return built


@pytest.fixture
def record_factory():
    return make_record


@pytest.fixture(scope="session")
def default_corpus():
    """The default :class:`SyntheticSpec` corpus and its ground truth, generated once.

    Shared by every test that reads it, so no test may change it.
    """
    return generate_corpus(SyntheticSpec())


node_ids = st.sampled_from([f"n{i}" for i in range(8)])
# fields a record line admits, non-ASCII letters and punctuation such as
# '#' and ',' included
record_fields = st.text(
    st.characters(codec="utf-8") | st.sampled_from("#,;:'\"\\éß中"), min_size=1, max_size=6
).filter(is_field)


@st.composite
def retweet_graphs(draw, max_nodes: int = 8, max_arcs: int = 14):
    """Random small weighted digraphs without self-loops, at least one arc."""
    pairs = draw(
        st.lists(
            st.tuples(node_ids, node_ids).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=max_arcs,
        )
    )
    arcs = {}
    for pair in pairs:
        arcs[pair] = arcs.get(pair, 0) + draw(st.integers(min_value=1, max_value=4))
    return RetweetGraph.from_arcs(arcs)
