"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output). Timed criteria assert their runtime budget.
"""

import json
import time
from contextlib import contextmanager
from datetime import date

import numpy as np
import pytest

import oracles
from sentinet.community import (
    Partition,
    louvain,
    modularity,
    z_rand,
)
from sentinet.config import PipelineConfig
from sentinet.domains import DomainMatrix, first_principal_component
from sentinet.graph import RetweetGraph
from sentinet.ingest import write_corpus
from sentinet.pipeline import run_pipeline
from sentinet.similarity import adf_test
from sentinet.stats import (
    CodingMatrix,
    ContingencyTable,
    chi_square,
    krippendorff_alpha,
)
from sentinet.topics import TopicLexicon, filter_topic_tree, rate_table
from conftest import activity_of, corpus_of, make_record


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def random_graph(rng: np.random.Generator, max_nodes: int = 12) -> RetweetGraph:
    n = int(rng.integers(2, max_nodes + 1))
    nodes = [f"n{i}" for i in range(n)]
    arcs = {}
    n_arcs = int(rng.integers(1, max(2, n * (n - 1) // 2 + 1)))
    for _ in range(n_arcs):
        i, j = rng.choice(n, size=2, replace=False)
        arcs[(nodes[int(i)], nodes[int(j)])] = int(rng.integers(1, 10))
    return RetweetGraph.from_arcs(arcs)


def test_criterion_1_chi_square_reproduction():
    with criterion(1, "chi-square statistics match reported values"):
        start = time.perf_counter()
        table3 = ContingencyTable.from_rows(
            ["left", "right", "far_right"],
            ["misinfo", "no_misinfo"],
            [[52, 361 - 52], [325, 382 - 325], [360, 408 - 360]],
        )
        result3 = chi_square(table3)
        assert result3.statistic == pytest.approx(563.3, abs=1.5)
        assert result3.df == 2
        table2 = ContingencyTable.from_rows(
            ["right", "far_right"],
            ["misinfo", "no_misinfo"],
            [[325, 57], [360, 48]],
        )
        result2 = chi_square(table2)
        assert result2.statistic == pytest.approx(1.7, abs=0.3)
        assert result2.df == 1
        assert time.perf_counter() - start < 1.0


def test_criterion_2_modularity_identities():
    with criterion(2, "modularity identities on 200 random digraphs"):
        rng = np.random.default_rng(202)
        for _ in range(200):
            graph = random_graph(rng)
            assert abs(modularity(graph, oracles.one_community_partition(graph))) <= 1e-12
            closed_form = -sum(
                graph.w_in[node] * graph.w_out[node] for node in graph.nodes
            ) / graph.w**2
            observed = modularity(graph, oracles.singleton_partition(graph))
            assert observed == pytest.approx(closed_form, abs=1e-12)


def _partition_masks(n: int, cache={}) -> np.ndarray:
    if n not in cache:
        masks = []
        for part in oracles.set_partitions(list(range(n))):
            labels = np.empty(n, dtype=int)
            for k, group in enumerate(part):
                labels[group] = k
            masks.append(labels[:, None] == labels[None, :])
        cache[n] = np.array(masks, dtype=float)
    return cache[n]


def test_criterion_3_louvain_vs_exhaustive():
    with criterion(3, "louvain within 5% of exhaustive optimum on >=95% of graphs"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        hits = 0
        total = 200
        for _ in range(total):
            graph = random_graph(rng, max_nodes=8)
            nodes = sorted(graph.nodes)
            n = len(nodes)
            m = np.zeros((n, n))
            for i, a in enumerate(nodes):
                for j, b in enumerate(nodes):
                    m[i, j] = (
                        graph.arcs.get((a, b), 0)
                        - graph.w_in[a] * graph.w_out[b] / graph.w
                    )
            best = float(
                np.einsum("pij,ij->p", _partition_masks(n), m).max()
            ) / graph.w
            found = max(
                modularity(graph, louvain(graph, seed=seed)) for seed in range(5)
            )
            assert found <= best + 1e-9
            if found >= 0.95 * best - 1e-12:
                hits += 1
        assert hits >= 0.95 * total
        two_cycles = RetweetGraph.from_arcs(
            {
                ("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1,
                ("x", "y"): 1, ("y", "z"): 1, ("z", "x"): 1,
                ("a", "x"): 1,
            }
        )
        exhaustive = oracles.exhaustive_best_modularity(two_cycles)
        found = max(
            modularity(two_cycles, louvain(two_cycles, seed=seed))
            for seed in range(5)
        )
        assert found == pytest.approx(exhaustive, abs=1e-12)
        assert time.perf_counter() - start < 120.0


def _fixed_partition_pairs():
    """Five deterministic 50-node partition pairs with non-trivial overlap."""
    rng = np.random.default_rng(404)
    nodes = [f"n{i:02d}" for i in range(50)]
    pairs = []
    for moved, k in ((8, 3), (10, 4), (12, 3), (6, 5), (15, 4)):
        labels1 = rng.integers(0, k, size=50)
        labels2 = labels1.copy()
        indices = rng.choice(50, size=moved, replace=False)
        labels2[indices] = rng.integers(0, k, size=moved)
        pairs.append(
            (
                Partition.from_assignment(
                    {n: int(v) for n, v in zip(nodes, labels1)}
                ),
                Partition.from_assignment(
                    {n: int(v) for n, v in zip(nodes, labels2)}
                ),
            )
        )
    return pairs


def test_criterion_4_zrand_vs_permutation():
    with criterion(4, "analytic z-rand within 10% of 1e5-permutation Monte Carlo"):
        start = time.perf_counter()
        for index, (p1, p2) in enumerate(_fixed_partition_pairs()):
            analytic = z_rand(p1, p2)
            monte_carlo = oracles.zrand_monte_carlo(p1, p2, 100_000, seed=index)
            assert abs(analytic - monte_carlo) <= 0.10 * abs(monte_carlo), (
                index, analytic, monte_carlo,
            )
        assert time.perf_counter() - start < 60.0


def test_criterion_5_pca_oracle():
    with criterion(5, "first-component scores match covariance eigensolver to 1e-8"):
        rng = np.random.default_rng(505)
        checked = 0
        while checked < 50:
            rows = int(rng.integers(2, 31))
            cols = int(rng.integers(1, 101))
            values = rng.random((rows, cols))
            singulars = np.linalg.svd(values - values.mean(axis=0), compute_uv=False)
            if singulars[0] < 1e-9:
                continue
            if singulars.size > 1 and (singulars[0] - singulars[1]) < 1e-4 * singulars[0]:
                continue  # nearly degenerate leading axis: direction ill-posed
            matrix = DomainMatrix(
                communities=tuple(f"c{i}" for i in range(rows)),
                domains=tuple(f"d{j}" for j in range(cols)),
                values=values,
                retained_totals=tuple([1] * rows),
                unparseable_urls=0,
            )
            mine = np.array(
                [first_principal_component(matrix).scores[f"c{i}"] for i in range(rows)]
            )
            reference = oracles.pca_scores_eigh(values)
            agreement = min(
                np.abs(mine - reference).max(), np.abs(mine + reference).max()
            )
            assert agreement < 1e-8
            checked += 1


def test_criterion_6_burst_pipeline_end_to_end(default_corpus, tmp_path):
    with criterion(6, "synthetic burst flagged, attributed, and neutralized"):
        start = time.perf_counter()
        records, truth = default_corpus
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(records, corpus)
        config = PipelineConfig(
            corpus=corpus,
            output_dir=tmp_path / "out",
            window_start=truth.window[0],
            window_end=truth.window[1],
            split=truth.split,
            seed=13,
        )
        run_pipeline(config)

        # (a) every day of every pair is valid: all community-day docs nonempty
        import csv as csv_mod

        with open(config.output_dir / "similarity.csv") as handle:
            rows = list(csv_mod.DictReader(handle))
        assert rows and all(row["valid"] == "1" for row in rows)

        # (b) the injected day is flagged with H >= 2; at most one other day
        flagged = {
            (row["day"], row["pair"]) for row in rows if row["flagged"] == "1"
        }
        flagged_days = {day for day, _ in flagged}
        viral_day = truth.viral_day.isoformat()
        assert viral_day in flagged_days
        viral_scores = [
            float(row["H"])
            for row in rows
            if row["day"] == viral_day and row["flagged"] == "1"
        ]
        assert viral_scores and max(viral_scores) >= 2.0
        assert len(flagged_days - {viral_day}) <= 1

        # (c) LSA marks the injected tweets as topical on the viral day:
        # the event for the injected cluster pair selects every copy, and
        # each side's extraction contributes its own cluster's copies
        report = json.loads((config.output_dir / "lsa_drivers.json").read_text())
        viral_events = [e for e in report["events"] if e["day"] == viral_day]
        assert viral_events
        injected = set(truth.viral_tweet_ids)
        injected_pair_events = [
            event
            for event in viral_events
            if all(injected & set(ids) for ids in event["topical"].values())
        ]
        assert injected_pair_events
        for event in injected_pair_events:
            topical_union = set().union(*(set(v) for v in event["topical"].values()))
            assert injected <= topical_union

        # (d) removing the common topical tweets drops the burst below 2
        for event in viral_events:
            assert event["is_driver"]
            assert (
                event["recomputed_burst_score"] is None
                or event["recomputed_burst_score"] < 2.0
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s"


def test_criterion_7_adf_calibration():
    with criterion(7, "ADF rejects <=10% of random walks and >=90% of white noise"):
        rng = np.random.default_rng(707)
        walk_rejections = 0
        noise_rejections = 0
        trials = 1000
        for _ in range(trials):
            steps = rng.standard_normal(180)
            walk_rejections += adf_test(np.cumsum(steps), 0.05).reject
            noise_rejections += adf_test(rng.standard_normal(180), 0.05).reject
        assert walk_rejections / trials <= 0.10
        assert noise_rejections / trials >= 0.90


def test_criterion_8_krippendorff_oracle():
    with criterion(8, "alpha matches coincidence-matrix brute force to 1e-9"):
        rng = np.random.default_rng(808)
        for _ in range(100):
            coders = int(rng.integers(2, 6))
            items = int(rng.integers(10, 60))
            missing_rate = float(rng.uniform(0.0, 0.4))
            rows = []
            for _ in range(coders):
                row = [
                    None if rng.random() < missing_rate else int(rng.integers(0, 3))
                    for _ in range(items)
                ]
                rows.append(row)
            pairable = sum(
                1
                for item in range(items)
                if sum(row[item] is not None for row in rows) >= 2
            )
            if pairable == 0:
                continue
            values = tuple(tuple(row) for row in rows)
            try:
                mine = krippendorff_alpha(CodingMatrix(values))
            except Exception:
                continue
            reference = oracles.alpha_coincidence(rows)
            assert mine == pytest.approx(reference, abs=1e-9)
        perfect = CodingMatrix(
            tuple(tuple(i % 2 for i in range(20)) for _ in range(4))
        )
        assert krippendorff_alpha(perfect) == 1.0


def test_criterion_9_rate_table_identities():
    with criterion(9, "rate normalization identities hold on all fixtures"):
        window = (date(2020, 7, 1), date(2020, 7, 30))
        rng = np.random.default_rng(909)
        for trial in range(20):
            n_comm = int(rng.integers(2, 6))
            accounts = {f"c{i}": [f"c{i}s{j}" for j in range(3)] for i in range(n_comm)}
            records = {
                acct: [
                    make_record(f"{acct}d{d}", acct, day_offset=int(d))
                    for d in range(int(rng.integers(5, 30)))
                ]
                for pool in accounts.values()
                for acct in pool
            }
            last_active = activity_of(records, window)
            account_days = {
                label: sum(last_active[account] + 1 for account in pool)
                for label, pool in accounts.items()
            }
            counts = {
                "topic": {
                    f"c{i}": int(rng.integers(0, 50)) for i in range(n_comm)
                }
            }
            table = rate_table(counts, account_days, [], {}, {})
            scaled = [row.sum_scaled for row in table.rows]
            maxed = [row.max_scaled for row in table.rows]
            if any(counts["topic"][f"c{i}"] > 0 for i in range(n_comm)):
                assert sum(scaled) == pytest.approx(1.0)
                assert max(maxed) == 1.0
                assert all(0.0 <= value <= 1.0 for value in maxed)
            else:
                assert all(value is None for value in scaled)

        # subtopic counts never exceed parent counts under nested filtering
        parent = TopicLexicon("covid", ("covid",))
        child = TopicLexicon("masks", ("mask",), parent="covid")
        grandchild = TopicLexicon("n95", ("n95",), parent="masks")
        lexicons = {"covid": parent, "masks": child, "n95": grandchild}
        vocabulary = ["covid", "mask", "n95", "news", "cases", "today"]
        for trial in range(20):
            records_list = [
                make_record(
                    f"t{trial}-{i}",
                    "author",
                    text=" ".join(
                        rng.choice(vocabulary, size=int(rng.integers(1, 5)))
                    ),
                )
                for i in range(int(rng.integers(1, 40)))
            ]
            matched = filter_topic_tree(
                corpus_of(records_list), range(len(records_list)), lexicons
            )
            assert len(matched["masks"]) <= len(matched["covid"])
            assert len(matched["n95"]) <= len(matched["masks"])
