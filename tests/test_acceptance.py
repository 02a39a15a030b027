"""Acceptance gate: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 8's real-asset comparison is gated on environment
variables naming the ontology files and is skipped otherwise.
"""

import json
import os
import random
import time
from dataclasses import asdict
from datetime import timedelta
from itertools import combinations

import pytest

from cosuggest.config import PipelineConfig
from cosuggest.cooccurrence import CooccurrenceGraph, build_graph, prune
from cosuggest.copra import ConceptCluster, ConceptClusters, CopraConfig, copra_cluster
from cosuggest.evaluation import reduce_from_config, run_experiment_on_dataset
from cosuggest.log_pipeline import (
    parse_log,
    reduce_dataset,
    session_length_stats,
    split_sessions,
)
from cosuggest.matching import ConceptMatcher
from cosuggest.ontology import compute_metrics, load_ontology, ontology_from_dict
from cosuggest.suggestion import Strategy, suggest

from conftest import (
    CITY_ONTOLOGY,
    aggregate,
    make_dataset,
    make_records,
    outcome_from_concept_sets,
    write_log,
)
from test_evaluation import _hand_fixture
from test_ontology import _brute_force_metrics, _random_ontology


def _passed(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n}: PASS — {message}")


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_strategy_golden():
    clusters = [
        ConceptCluster(1, frozenset({"c1", "c3", "c7"})),
        ConceptCluster(2, frozenset({"c2", "c3", "c5", "c8"})),
        ConceptCluster(3, frozenset({"c5", "c8", "c9"})),
    ]
    context = frozenset({"c1", "c3"})
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        indexed = ConceptClusters(clusters)  # a fresh memo: every strategy is computed
        slack = suggest(indexed, context, Strategy.SLACK).suggested
        selective = suggest(indexed, context, Strategy.SLACK_SELECTIVE).suggested
        strict = suggest(indexed, context, Strategy.STRICT).suggested
        best = min(best, time.perf_counter() - start)
    assert slack == frozenset({"c2", "c5", "c7", "c8"})
    assert selective == frozenset({"c7"})
    assert strict == frozenset()
    assert best < 0.001
    _passed(1, f"golden strategy outputs exact, {best * 1e6:.0f} us for all three")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_subset_laws_randomized():
    rng = random.Random(20240313)
    universe = [f"c{i}" for i in range(14)]
    for _ in range(1000):
        clusters = ConceptClusters(
            ConceptCluster(i, frozenset(rng.sample(universe, rng.randint(1, 7))))
            for i in range(rng.randint(1, 9))
        )
        context = frozenset(rng.sample(universe, rng.randint(0, 5)))
        slack = suggest(clusters, context, Strategy.SLACK)
        selective = suggest(clusters, context, Strategy.SLACK_SELECTIVE)
        strict = suggest(clusters, context, Strategy.STRICT)
        assert strict.suggested <= slack.suggested
        assert selective.suggested <= slack.suggested
        for result in (slack, selective, strict):
            assert not result.suggested & context
    _passed(2, "subset laws and context disjointness over 1000 random instances")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_copra_recovers_disjoint_cliques():
    worst = 0.0
    for k in (3, 4, 5):
        left = tuple(f"l{i}" for i in range(k))
        right = tuple(f"r{i}" for i in range(k))
        expected = {tuple(sorted(left)), tuple(sorted(right))}
        for seed in range(50):
            g = CooccurrenceGraph(
                {pair: 1 for clique in (left, right) for pair in combinations(clique, 2)}
            )

            deviations: list[float] = []
            membership: dict[str, int] = {}

            def record(iteration, labels):
                deviations.extend(
                    abs(sum(coeffs.values()) - 1.0) for coeffs in labels.values()
                )

            start = time.perf_counter()
            result = copra_cluster(
                g, CopraConfig(v=1, max_iterations=100, seed=seed), on_iteration=record
            )
            elapsed = time.perf_counter() - start
            worst = max(worst, elapsed)

            got = {tuple(sorted(c.members)) for c in result.clusters}
            assert got == expected, f"k={k} seed={seed}: {got}"
            assert max(deviations) < 1e-9
            for cluster in result.clusters:
                for node in cluster.members:
                    membership[node] = membership.get(node, 0) + 1
            assert all(count <= 1 for count in membership.values())
            assert elapsed < 1.0
    _passed(3, f"k-cliques recovered for 150 runs, worst runtime {worst * 1e3:.1f} ms")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_graph_oracle_and_prune_idempotence():
    rng = random.Random(404)
    universe = [f"c{i}" for i in range(10)]
    data = {}
    for i in range(200):
        data[f"u{i}#1"] = [
            set(rng.sample(universe, rng.randint(0, 3)))
            for _ in range(rng.randint(1, 4))
        ]
    ds = make_dataset(data)
    g = build_graph(ds.sessions)

    unions = {sid: set().union(*per_query) for sid, per_query in data.items()}
    for x, y in combinations(universe, 2):
        brute = sum(1 for u in unions.values() if x in u and y in u)
        assert g.edges.get((x, y), 0) == brute
    assert g.nodes == {c for u in unions.values() if len(u) >= 2 for c in u}

    for threshold in range(1, 6):
        once = prune(g, threshold)
        twice = prune(once, threshold)
        assert once.edges == twice.edges and once.nodes == twice.nodes
    _passed(4, "200-session edge weights equal brute-force counts; prune idempotent 1-5")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_metric_oracle():
    metrics = aggregate(_hand_fixture())
    assert metrics.n_scored == 18
    assert metrics.n_precision_sessions == 16
    assert metrics.recall == pytest.approx(11 / 18, abs=1e-12)
    assert metrics.precision == pytest.approx(9 / 16, abs=1e-12)
    assert metrics.f1 == pytest.approx(99 / 169, abs=1e-12)
    assert metrics.richness_min == 0
    assert metrics.richness_max == 3
    assert metrics.richness_mean == pytest.approx(4 / 3, abs=1e-12)
    _passed(5, "hand-computed recall/precision/F1 reproduced to 1e-12 with exclusions")


# ---------------------------------------------------------------- criterion 6

def _engineered_inputs(tmp_path):
    ontology_path = tmp_path / "ontology.json"
    ontology_path.write_text(json.dumps(CITY_ONTOLOGY), encoding="utf-8")
    rows = []
    for i in range(20):
        rows.append((f"t{i}", "park beach", "2006-03-01 09:00:00", "", ""))
        rows.append((f"m{i}", "museum library", "2006-03-01 09:00:00", "", ""))
    for i in range(3):
        rows.append((f"e{i}", "park", "2006-03-01 09:00:00", "", ""))
        rows.append((f"e{i}", "beach", "2006-03-01 09:05:00", "", ""))
        rows.append((f"f{i}", "museum", "2006-03-01 09:00:00", "", ""))
        rows.append((f"f{i}", "library", "2006-03-01 09:05:00", "", ""))
    log_path = tmp_path / "queries.tsv"
    write_log(log_path, rows)
    return log_path, ontology_path


def test_criterion_6_determinism_across_runs_and_threads(tmp_path):
    log_path, ontology_path = _engineered_inputs(tmp_path)
    # Folds run sequentially, so reruns are the whole criterion; the name
    # keeps the test's id stable.
    blobs = []
    for _ in range(3):
        config = PipelineConfig(
            ontology_path=str(ontology_path), log_path=str(log_path), folds=2, seed=42
        )
        report = run_experiment_on_dataset(reduce_from_config(config), config)
        blobs.append(json.dumps(asdict(report), sort_keys=True).encode())
    assert blobs[0] == blobs[1] == blobs[2]
    _passed(6, "seed-42 reports byte-identical across three reruns")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_sessionization():
    for seed in range(100):
        rng = random.Random(seed)
        records = []
        for u in range(rng.randint(1, 8)):
            minutes, m = [], 0
            for q in range(rng.randint(1, 30)):
                minutes.append((f"q{q}", m))
                m += rng.randint(0, 80)
            records += make_records(f"u{u}", minutes)
        g1 = rng.randint(1, 40)
        g2 = g1 + rng.randint(1, 40)
        n1 = len(split_sessions(records, timedelta(minutes=g1)))
        n2 = len(split_sessions(records, timedelta(minutes=g2)))
        assert n2 <= n1

    ds = make_dataset(
        {
            "u1#1": [{"a"}],
            "u2#1": [{"a"}],
            "u3#1": [{"a"}, {"b"}],
            "u4#1": [{"a"}, {"b"}, {"c"}, {"d"}],
        }
    )
    stats = session_length_stats(ds)
    assert stats.min == 1 and stats.max == 4
    assert stats.mean == pytest.approx(2.0)
    assert stats.median == 1
    assert stats.stdev == pytest.approx(1.224744871391589)
    assert stats.histogram == {1: 2, 2: 1, 4: 1}
    _passed(7, "gap monotonicity on 100 random logs; length stats match hand values")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_ontology_metrics_oracle():
    for seed in range(100):
        ont = _random_ontology(random.Random(seed), max_classes=50)
        metrics = compute_metrics(ont)
        n, relations, longest, mean_degree = _brute_force_metrics(ont)
        assert metrics.class_count == n
        assert metrics.subclass_relation_count == relations
        assert metrics.longest_root_to_leaf_path == longest
        assert metrics.mean_node_degree == pytest.approx(mean_degree)
    _passed(8, "metrics equal brute-force DFS on 100 random DAGs (<= 50 classes)")


# Asset-gated, not a CI gate: set COSUGGEST_ASSET_FINE / _CROWD / _GAZETTEER to
# ontology JSON files to compare totals against their published structure
# counts (195/268, 97/94 and 150/155 classes/relations respectively).
_ASSET_EXPECTATIONS = [
    ("COSUGGEST_ASSET_FINE", 195, 268),
    ("COSUGGEST_ASSET_CROWD", 97, 94),
    ("COSUGGEST_ASSET_GAZETTEER", 150, 155),
]


@pytest.mark.parametrize("env_var,classes,relations", _ASSET_EXPECTATIONS)
def test_criterion_8_asset_gated_totals(env_var, classes, relations):
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(f"{env_var} not set; asset-gated check skipped")
    metrics = compute_metrics(load_ontology(path))
    assert metrics.class_count == classes
    assert metrics.subclass_relation_count == relations


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_end_to_end_sanity(tmp_path):
    log_path, ontology_path = _engineered_inputs(tmp_path)

    start = time.perf_counter()
    config = PipelineConfig(
        ontology_path=str(ontology_path), log_path=str(log_path), folds=2, seed=42
    )
    report = run_experiment_on_dataset(reduce_from_config(config), config)
    elapsed = time.perf_counter() - start

    slack = report.strategies["slack"].summary
    assert slack.recall == pytest.approx(1.0)
    assert slack.precision == pytest.approx(1.0)
    assert elapsed < 5.0

    # The engineered session itself: train on everything except it, then
    # check the learned pair cluster drives a perfect suggestion.
    matcher = ConceptMatcher.from_ontology(ontology_from_dict(CITY_ONTOLOGY))
    sessions = split_sessions(parse_log(log_path).records, timedelta(minutes=30))
    ds = reduce_dataset(sessions, matcher)
    target = "e0#1"
    train = [s for s in ds.sessions if s.session_id != target]
    graph = prune(build_graph(train), config.prune_min_weight)
    clusters = copra_cluster(graph, CopraConfig(v=2, seed=42)).clusters
    assert frozenset({"park", "beach"}) in {c.members for c in clusters}

    concepts = next(s.concepts for s in ds.sessions if s.session_id == target)
    outcome = outcome_from_concept_sets(concepts, clusters, Strategy.SLACK)
    assert outcome.hits / len(outcome.ground_truth) == 1.0   # recall on this session
    assert outcome.hits / len(outcome.suggested) == 1.0      # precision on this session
    _passed(9, f"pair cluster learned; perfect session score; pipeline {elapsed:.2f} s")
