from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

from sentinet.graph import RetweetGraph
from sentinet.ingest import TrigramEncoder, TweetRecord
from sentinet.similarity import DayDocs

BASE_TIME = datetime(2020, 7, 1, 12, 0, 0, tzinfo=timezone.utc)


def make_record(
    tweet_id: str,
    author: str,
    text: str = "covid update",
    retweeted: str | None = None,
    day_offset: int = 0,
    urls: tuple[str, ...] = (),
) -> TweetRecord:
    return TweetRecord(
        tweet_id=tweet_id,
        author_id=author,
        created_at=BASE_TIME + timedelta(days=day_offset),
        text=text,
        retweeted_author_id=retweeted,
        urls=urls,
    )


def decoded_counts(token_docs):
    """The token streams' summed trigram counts, keyed by (token, token, token)."""
    encoder = TrigramEncoder()
    matrix, codes = encoder.count(token_docs)
    return dict(zip(encoder.decode(codes), matrix.sum(axis=0).A1.tolist()))


def decoded_rows(day_docs: DayDocs, encoder: TrigramEncoder):
    """Each community-day's row of the matrix, keyed by (token, token, token).

    ``encoder`` is the one the day documents were built with. Counts stay
    the matrix's floats, so a non-integer count fails an equality with
    integer counts.
    """
    matrix = day_docs.matrix
    rows = {}
    for key, row in day_docs.row_of.items():
        start, end = matrix.indptr[row], matrix.indptr[row + 1]
        trigrams = encoder.decode(day_docs.codes[matrix.indices[start:end]])
        rows[key] = dict(zip(trigrams, matrix.data[start:end].tolist()))
    return rows


def day_docs_of(docs) -> DayDocs:
    """One matrix row per code-keyed :class:`CommunityDayDoc`, in mapping order."""
    codes = np.unique(
        np.array([code for doc in docs.values() for code in doc.trigram_counts], dtype=np.int64)
    )
    rows = [sorted(doc.trigram_counts.items()) for doc in docs.values()]
    matrix = sp.csr_matrix(
        (
            np.array([count for row in rows for _, count in row], dtype=float),
            np.searchsorted(codes, [code for row in rows for code, _ in row]),
            np.cumsum([0] + [len(row) for row in rows]),
        ),
        shape=(len(rows), codes.size),
    )
    return DayDocs.from_rows(docs, matrix, codes)


@pytest.fixture
def record_factory():
    return make_record


node_ids = st.sampled_from([f"n{i}" for i in range(8)])


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
