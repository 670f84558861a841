"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way (direct double sums,
exhaustive enumeration, explicit coincidence matrices) and stays
independent of the code paths under test.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np
from scipy.cluster.hierarchy import linkage

from sentinet.community import Partition
from sentinet.errors import EmptyCorpusError
from sentinet.ingest import ParseResult, TrigramEncoder, TweetRecord
from sentinet.lsa import TopicalExtraction, _gap_select, truncated_svd
from sentinet.similarity import CommunityDayDoc, burst_score, intercluster_similarity

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[^\W_]+")


def singleton_partition(graph) -> Partition:
    """Every node in a community of its own."""
    return Partition.from_assignment({node: node for node in graph.nodes})


def one_community_partition(graph) -> Partition:
    """Every node in one community."""
    return Partition.from_assignment({node: 0 for node in graph.nodes})


def modularity_direct(graph, partition) -> float:
    """Directed modularity as an explicit double sum over node pairs."""
    nodes = sorted(graph.nodes)
    w = graph.w
    total = 0.0
    for i in nodes:
        for j in nodes:
            if partition.assignment[i] != partition.assignment[j]:
                continue
            a_ij = graph.arcs.get((i, j), 0)
            total += a_ij - graph.w_in[i] * graph.w_out[j] / w
    return total / w


def set_partitions(items: list):
    """All set partitions of ``items`` (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def exhaustive_best_modularity(graph) -> float:
    """Maximum modularity over all partitions, via a precomputed matrix."""
    nodes = sorted(graph.nodes)
    n = len(nodes)
    w = graph.w
    m = np.zeros((n, n))
    for a, i in ((a, i) for i, a in enumerate(nodes)):
        for b, j in ((b, j) for j, b in enumerate(nodes)):
            m[i, j] = graph.arcs.get((a, b), 0) - graph.w_in[a] * graph.w_out[b] / w
    best = -np.inf
    for part in set_partitions(list(range(n))):
        labels = np.empty(n, dtype=int)
        for k, group in enumerate(part):
            labels[group] = k
        mask = labels[:, None] == labels[None, :]
        best = max(best, float(m[mask].sum()) / w)
    return best


def is_weakly_connected(nodes, arcs) -> bool:
    """BFS reachability treating every arc as undirected."""
    nodes = sorted(nodes)
    if not nodes:
        return True
    neighbors = {node: set() for node in nodes}
    for source, target in arcs:
        neighbors[source].add(target)
        neighbors[target].add(source)
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        node = frontier.pop()
        for other in neighbors[node]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(nodes)


def zrand_monte_carlo(p1, p2, n_permutations: int, seed: int) -> float:
    """Monte Carlo z-score of the co-pair count under label permutation."""
    nodes = sorted(p1.nodes)
    labels1 = np.array([_dense(p1)[node] for node in nodes])
    labels2 = np.array([_dense(p2)[node] for node in nodes])
    k2 = labels2.max() + 1

    def same_both(l2):
        cont = np.bincount(labels1 * k2 + l2, minlength=(labels1.max() + 1) * k2)
        return (cont * (cont - 1) // 2).sum()

    rng = np.random.default_rng(seed)
    observed = same_both(labels2)
    samples = np.empty(n_permutations)
    for i in range(n_permutations):
        samples[i] = same_both(rng.permutation(labels2))
    return float((observed - samples.mean()) / samples.std())


def _dense(partition) -> dict:
    relabel = {}
    out = {}
    for node in sorted(partition.nodes):
        label = partition.assignment[node]
        if label not in relabel:
            relabel[label] = len(relabel)
        out[node] = relabel[label]
    return out


def pca_scores_eigh(values: np.ndarray) -> np.ndarray:
    """First-component scores via dense eigendecomposition of the covariance."""
    centered = values - values.mean(axis=0)
    cov = centered.T @ centered
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    leading = eigenvectors[:, -1]
    return centered @ leading


def alpha_coincidence(rows: list[list]) -> float:
    """Krippendorff alpha from an explicitly built coincidence matrix.

    ``rows`` is coders x items with None for missing. Nominal metric.
    """
    n_items = len(rows[0])
    categories = sorted(
        {value for row in rows for value in row if value is not None}, key=repr
    )
    index = {value: i for i, value in enumerate(categories)}
    k = len(categories)
    coincidence = [[Fraction(0)] * k for _ in range(k)]
    for item in range(n_items):
        values = [row[item] for row in rows if row[item] is not None]
        m = len(values)
        if m < 2:
            continue
        for i in range(m):
            for j in range(m):
                if i != j:
                    coincidence[index[values[i]]][index[values[j]]] += Fraction(1, m - 1)
    n_total = sum(sum(row) for row in coincidence)
    if n_total == 0:
        raise ZeroDivisionError("no pairable values")
    margins = [sum(row) for row in coincidence]
    d_observed = sum(
        coincidence[c][d] for c in range(k) for d in range(k) if c != d
    ) / n_total
    d_expected = sum(
        margins[c] * margins[d] for c in range(k) for d in range(k) if c != d
    ) / (n_total * (n_total - 1))
    if d_observed == 0:
        return 1.0
    return float(1 - d_observed / d_expected)


def best_contiguous_three_split(scores: list[float]) -> list[list[float]]:
    """Contiguous 3-way split of sorted scores minimizing within-group variance."""
    ordered = sorted(scores)
    n = len(ordered)
    best = None
    best_cost = np.inf
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            groups = [ordered[:i], ordered[i:j], ordered[j:]]
            cost = sum(
                sum((x - np.mean(g)) ** 2 for x in g) for g in groups if g
            )
            if cost < best_cost:
                best_cost = cost
                best = groups
    return best


def linkage_cut(scores: dict, k: int, method: str) -> dict:
    """scipy ``linkage`` of 1-D scores, cut after its first n-k merges.

    The merges are replayed in order rather than cut by height, because
    centroid linkage can produce inversions. Groups are labelled by
    ascending mean.
    """
    labels = sorted(scores, key=str)
    values = np.array([scores[label] for label in labels], dtype=float)
    n = len(labels)
    clusters = {i: [i] for i in range(n)}
    if n > 1:
        merges = linkage(values.reshape(-1, 1), method=method)[: n - k]
        for next_id, row in enumerate(merges, start=n):
            clusters[next_id] = clusters.pop(int(row[0])) + clusters.pop(int(row[1]))
    groups = sorted(clusters.values(), key=lambda group: float(np.mean(values[group])))
    return {labels[i]: c for c, group in enumerate(groups) for i in group}


def adjacent_merge_has_tie(values: list[Fraction], k: int) -> bool:
    """Whether merging closest adjacent means down to k groups ever ties.

    Replayed in exact rational arithmetic, where centroid and average
    linkage agree; on a tie, rounding decides which pair a float
    implementation merges.
    """
    groups = [[v] for v in sorted(values)]
    while len(groups) > k:
        means = [sum(group) / len(group) for group in groups]
        gaps = [right - left for left, right in zip(means, means[1:])]
        smallest = min(gaps)
        if gaps.count(smallest) > 1:
            return True
        i = gaps.index(smallest)
        groups[i : i + 2] = [groups[i] + groups[i + 1]]
    return False


def mean_and_population_sd(values: list[float]) -> tuple[float, float]:
    array = np.asarray(values, dtype=float)
    return float(array.mean()), float(array.std(ddof=0))


def normalize_text(text: str, stopwords: frozenset[str] = frozenset()) -> tuple[str, ...]:
    """The three-regex tokenizer: strip URLs, then mentions, then split the lowered rest."""
    cleaned = _URL_RE.sub(" ", text)
    cleaned = _MENTION_RE.sub(" ", cleaned)
    return tuple(tok for tok in _TOKEN_RE.findall(cleaned.lower()) if tok not in stopwords)


def indexed_trigram_counts(tokens) -> dict[tuple[str, str, str], int]:
    """A token stream's trigram counts, built by index, in first-seen order."""
    return dict(
        Counter((tokens[i], tokens[i + 1], tokens[i + 2]) for i in range(len(tokens) - 2))
    )


def trigram_jaccard(tokens_a, tokens_b) -> float:
    """Jaccard similarity of two token streams' trigram sets, 0 when both have none."""
    set_a, set_b = set(indexed_trigram_counts(tokens_a)), set(indexed_trigram_counts(tokens_b))
    union = len(set_a | set_b)
    return len(set_a & set_b) / union if union else 0.0


def community_day_doc(community, day, tweets) -> CommunityDayDoc:
    """Summed trigram counts of (tweet id, tokens) pairs, keyed by (token, token, token)."""
    counts: dict = {}
    for _, tokens in tweets:
        for trigram, count in indexed_trigram_counts(tokens).items():
            counts[trigram] = counts.get(trigram, 0) + count
    return CommunityDayDoc(community, day, counts, tuple(tweet_id for tweet_id, _ in tweets))


def lsa_topical_tweets(tweet_docs, k=5) -> TopicalExtraction:
    """One side's extraction from its own (tweet id, tokens) pairs.

    The side's tweets are counted alone, by an encoder of their own, and
    the matrix's columns are put in the lexicographic order of the decoded
    trigrams. The SVD and the gap rule are the package's: what this checks
    is the matrix they are given.
    """
    kept = [(tweet_id, tokens) for tweet_id, tokens in tweet_docs if len(tokens) > 2]
    if not kept:
        return TopicalExtraction(singular_values=(), per_vector=(), topical_ids=frozenset())
    ids = [tweet_id for tweet_id, _ in kept]
    encoder = TrigramEncoder()
    matrix, codes = encoder.count(tokens for _, tokens in kept)
    trigram_of = encoder.decode(codes)
    matrix = matrix[:, sorted(range(len(trigram_of)), key=trigram_of.__getitem__)]
    matrix.sort_indices()
    u, s = truncated_svd(matrix, k)
    null_level = s[0] * math.sqrt(len(kept) * np.finfo(float).eps)
    per_vector = []
    for j in range(s.size):
        magnitudes = np.abs(u[:, j])
        order = np.argsort(-magnitudes, kind="stable")
        keep = _gap_select(magnitudes[order]) if s[j] > null_level else 0
        per_vector.append(frozenset(ids[int(i)] for i in order[:keep]))
    return TopicalExtraction(
        singular_values=tuple(float(x) for x in s),
        per_vector=tuple(per_vector),
        topical_ids=frozenset().union(*per_vector),
    )


def confirm_drivers(
    series, day, tweets_a, tweets_b, extraction_a, extraction_b,
    match_threshold=0.5, flag_threshold=2.0, min_history=7,
):
    """Driver confirmation pair by pair: set Jaccard of every topical pair,
    dict-keyed reduced documents and the per-pair cosine mean.

    Returns (common_a, common_b, recomputed_s, recomputed_h, is_driver).
    """
    index = series.index_of(day)
    docs_a = {tweet_id: tokens for tweets in tweets_a.values() for tweet_id, tokens in tweets}
    docs_b = {tweet_id: tokens for tweets in tweets_b.values() for tweet_id, tokens in tweets}
    common_a, common_b = set(), set()
    for id_a in sorted(extraction_a.topical_ids & docs_a.keys()):
        for id_b in sorted(extraction_b.topical_ids & docs_b.keys()):
            if trigram_jaccard(docs_a[id_a], docs_b[id_b]) >= match_threshold:
                common_a.add(id_a)
                common_b.add(id_b)
    if not common_a:
        return frozenset(), frozenset(), series.values[index], burst_score(
            series, index, min_history
        ), False
    new_s = intercluster_similarity(
        *(
            [
                community_day_doc(c, day, [t for t in tweets[c] if t[0] not in removed])
                for c in sorted(tweets, key=str)
            ]
            for tweets, removed in ((tweets_a, common_a), (tweets_b, common_b))
        )
    )
    values = series.values[:index] + (new_s,) + series.values[index + 1 :]
    new_h = burst_score(replace(series, values=values), index, min_history)
    is_driver = new_h is None or new_h < flag_threshold
    return frozenset(common_a), frozenset(common_b), new_s, new_h, is_driver


def parse_timestamp(value: str) -> datetime:
    """ISO-8601 to aware UTC at second resolution, converting and truncating always."""
    raw = value.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    parsed = datetime.fromisoformat(raw)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc).replace(microsecond=0)


def _record_from_json(obj: dict) -> TweetRecord:
    tweet_id = obj["tweet_id"]
    author_id = obj["author_id"]
    if not isinstance(tweet_id, str) or not tweet_id:
        raise ValueError("tweet_id must be a non-empty string")
    if not isinstance(author_id, str) or not author_id:
        raise ValueError("author_id must be a non-empty string")
    retweeted = obj.get("retweeted_author_id")
    if retweeted is not None and (not isinstance(retweeted, str) or not retweeted):
        raise ValueError("retweeted_author_id must be null or a non-empty string")
    created_at = obj["created_at"]
    if not isinstance(created_at, str):
        raise ValueError("created_at must be a string")
    text = obj.get("text", "")
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    urls = obj.get("urls", [])
    if not isinstance(urls, list) or any(not isinstance(u, str) for u in urls):
        raise ValueError("urls must be an array of strings")
    return TweetRecord(
        tweet_id=tweet_id,
        author_id=author_id,
        created_at=parse_timestamp(created_at),
        text=text,
        retweeted_author_id=retweeted,
        urls=tuple(urls),
    )


def parse_tweet_stream(stream) -> ParseResult:
    """JSON Lines records through ``json.loads``, one line at a time; blank lines ignored."""
    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    skipped = 0
    for line in stream:
        if isinstance(line, bytes):
            line = line.decode("utf-8", errors="replace")
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("record line must be a JSON object")
            record = _record_from_json(obj)
        except (ValueError, KeyError, TypeError):
            skipped += 1
            continue
        if record.tweet_id in seen_ids:
            skipped += 1
            continue
        seen_ids.add(record.tweet_id)
        records.append(record)
    if not records:
        raise EmptyCorpusError(f"no parseable records ({skipped} lines skipped)")
    return ParseResult(records=records, skipped=skipped)
