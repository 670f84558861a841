from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import strategies as st

from sentinet.graph import RetweetGraph
from sentinet.ingest import TrigramEncoder, TweetRecord

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


def decoded_counts(token_docs, coded_counts=None):
    """Trigram counts keyed by (token, token, token), decoded from codes.

    The decoder is a fresh encoder fed ``token_docs`` in order, which assigns
    the same first-seen ids as the build that fed it the same streams.
    Without ``coded_counts``, the streams' own summed counts are decoded.
    """
    encoder = TrigramEncoder()
    _, codes, counts = encoder.count(token_docs, [len(token_docs)])
    if coded_counts is None:
        coded_counts = dict(zip(codes.tolist(), counts.tolist()))
    return dict(zip(encoder.decode(coded_counts), coded_counts.values()))


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
