import copy
import pickle
import random
from itertools import chain, combinations

import pytest

from cosuggest.cooccurrence import CooccurrenceGraph
from cosuggest.copra import (
    ConceptCluster,
    ConceptClusters,
    CopraConfig,
    copra_cluster,
    read_clusters_json,
    write_clusters_json,
)
from cosuggest.suggestion import Strategy, SuggestionResult, suggest

WORKED_CLUSTERS = [
    ConceptCluster(1, frozenset({"c1", "c3", "c7"})),
    ConceptCluster(2, frozenset({"c2", "c3", "c5", "c8"})),
    ConceptCluster(3, frozenset({"c5", "c8", "c9"})),
]
WORKED_CONTEXT = frozenset({"c1", "c3"})


def test_slack_worked_example():
    result = suggest(ConceptClusters(WORKED_CLUSTERS), WORKED_CONTEXT, Strategy.SLACK)
    assert result.suggested == frozenset({"c2", "c5", "c7", "c8"})
    assert result.selected_clusters == (1, 2)


def test_slack_selective_worked_example():
    result = suggest(ConceptClusters(WORKED_CLUSTERS), WORKED_CONTEXT, Strategy.SLACK_SELECTIVE)
    assert result.suggested == frozenset({"c7"})
    assert result.selected_clusters == (1,)


def test_strict_worked_example():
    result = suggest(ConceptClusters(WORKED_CLUSTERS), WORKED_CONTEXT, Strategy.STRICT)
    assert result.suggested == frozenset()
    assert result.selected_clusters == ()


def test_empty_context_suggests_nothing():
    for strategy in Strategy:
        result = suggest(ConceptClusters(WORKED_CLUSTERS), frozenset(), strategy)
        assert result.suggested == frozenset()
        assert result.selected_clusters == ()


def test_no_intersecting_cluster_suggests_nothing():
    for strategy in Strategy:
        result = suggest(ConceptClusters(WORKED_CLUSTERS), frozenset({"zz"}), strategy)
        assert result.suggested == frozenset()


def test_strict_unanimous_containment_fires():
    # Only cluster 3 touches c9 and it contains the whole context.
    result = suggest(ConceptClusters(WORKED_CLUSTERS), frozenset({"c9"}), Strategy.STRICT)
    assert result.suggested == frozenset({"c5", "c8"})
    assert result.selected_clusters == (3,)


def test_strict_equals_slack_on_singleton_contexts():
    for concept in ("c1", "c2", "c5", "c7", "c9"):
        context = frozenset({concept})
        slack = suggest(ConceptClusters(WORKED_CLUSTERS), context, Strategy.SLACK)
        strict = suggest(ConceptClusters(WORKED_CLUSTERS), context, Strategy.STRICT)
        assert strict.suggested == slack.suggested


def test_selective_tie_breaks_on_smallest_cluster_id():
    clusters = ConceptClusters(
        [ConceptCluster(4, frozenset({"x", "p"})), ConceptCluster(2, frozenset({"x", "q"}))]
    )
    result = suggest(clusters, frozenset({"x"}), Strategy.SLACK_SELECTIVE)
    assert result.selected_clusters == (2,)
    assert result.suggested == frozenset({"q"})


def test_suggest_is_pure():
    first = suggest(ConceptClusters(WORKED_CLUSTERS), WORKED_CONTEXT, Strategy.SLACK)
    second = suggest(ConceptClusters(WORKED_CLUSTERS), WORKED_CONTEXT, Strategy.SLACK)
    assert first == second


def test_result_invariants_hold():
    result = suggest(ConceptClusters(WORKED_CLUSTERS), WORKED_CONTEXT, Strategy.SLACK)
    assert isinstance(result, SuggestionResult)
    union = frozenset(
        chain.from_iterable(
            c.members for c in WORKED_CLUSTERS if c.id in result.selected_clusters
        )
    )
    assert result.suggested <= union
    assert not result.suggested & WORKED_CONTEXT


def _random_instance(rng: random.Random):
    universe = [f"c{i}" for i in range(12)]
    clusters = ConceptClusters(
        ConceptCluster(i, frozenset(rng.sample(universe, rng.randint(1, 6))))
        for i in range(rng.randint(1, 8))
    )
    context = frozenset(rng.sample(universe, rng.randint(0, 4)))
    return clusters, context


def test_subset_laws_on_randomized_instances():
    rng = random.Random(2024)
    for _ in range(1000):
        clusters, context = _random_instance(rng)
        slack = suggest(clusters, context, Strategy.SLACK)
        selective = suggest(clusters, context, Strategy.SLACK_SELECTIVE)
        strict = suggest(clusters, context, Strategy.STRICT)
        assert strict.suggested <= slack.suggested
        assert selective.suggested <= slack.suggested
        for result in (slack, selective, strict):
            assert not result.suggested & context


def test_strict_rule_brute_force_over_small_contexts():
    # Over every context of <= 3 concepts drawn from the fixture clusters:
    # STRICT selects the SLACK-selected clusters when each of them contains
    # the whole context, and nothing otherwise.
    concepts = sorted(set(chain.from_iterable(c.members for c in WORKED_CLUSTERS)))
    contexts = [
        frozenset(combo)
        for size in (1, 2, 3)
        for combo in combinations(concepts, size)
    ]
    for context in contexts:
        touching = [c for c in WORKED_CLUSTERS if c.members & context]
        strict = suggest(ConceptClusters(WORKED_CLUSTERS), context, Strategy.STRICT)
        if touching and all(context <= c.members for c in touching):
            assert strict.selected_clusters == tuple(sorted(c.id for c in touching))
        else:
            assert strict.selected_clusters == ()
            assert strict.suggested == frozenset()


# ------------------------------------------- the index against a full scan


def _scan(clusters, context, strategy):
    """Oracle: scan every cluster, in order, for its overlap with the context."""
    touching = [c for c in clusters if c.members & context]
    if strategy is Strategy.SLACK:
        selected = touching
    elif strategy is Strategy.SLACK_SELECTIVE:
        # ``min`` keeps the first of equal keys: ties on (overlap, id) go to
        # the earliest cluster in the list.
        best = min(touching, key=lambda c: (-len(c.members & context), c.id), default=None)
        selected = [] if best is None else [best]
    else:
        selected = touching if all(context <= c.members for c in touching) else []
    suggested = frozenset(chain.from_iterable(c.members for c in selected)) - context
    return tuple(sorted(c.id for c in selected)), suggested


def _postings_of(clusters):
    postings = {}
    for position, cluster in enumerate(clusters):
        for concept in cluster.members:
            postings.setdefault(concept, []).append(position)
    return postings


def test_index_matches_full_scan_on_random_cluster_sets():
    rng = random.Random(8)
    universe = [f"c{i}" for i in range(10)]
    seen = dict.fromkeys(
        ("overlap", "overlap_tie", "repeated_id", "empty_context", "untouched", "partial_strict"), 0
    )
    for _ in range(3000):
        clusters = [
            ConceptCluster(rng.randrange(6), frozenset(rng.sample(universe, rng.randint(1, 5))))
            for _ in range(rng.randint(0, 7))
        ]
        context = frozenset(rng.sample(universe + ["outside"], rng.randint(0, 4)))
        overlaps = [len(c.members & context) for c in clusters]
        touched = [n for n in overlaps if n]
        ids = [c.id for c in clusters]
        seen["overlap"] += any(a.members & b.members for a, b in combinations(clusters, 2))
        seen["overlap_tie"] += len(touched) > 1 and touched.count(max(touched)) > 1
        seen["repeated_id"] += len(set(ids)) < len(ids)
        seen["empty_context"] += not context
        seen["untouched"] += bool(context) and not touched
        seen["partial_strict"] += any(0 < n < len(context) for n in overlaps)

        indexed = ConceptClusters(clusters)
        assert indexed == tuple(clusters)
        assert indexed.postings == _postings_of(clusters)
        for strategy in Strategy:
            result = suggest(indexed, context, strategy)
            assert result == _scan(clusters, context, strategy)
            assert not result.suggested & context
            # Asked again: the collection's memo hands back the stored object.
            assert suggest(indexed, context, strategy) is result
    assert all(count >= 50 for count in seen.values()), seen


def test_each_cluster_collection_keeps_its_own_answers():
    whole = ConceptClusters(WORKED_CLUSTERS)
    equal = ConceptClusters(WORKED_CLUSTERS)
    without_3 = ConceptClusters(WORKED_CLUSTERS[:2])  # nothing holds c9
    contexts = [{"c1", "c3"}, {"c9"}, {"c5", "c9"}, set()]
    for strategy in Strategy:
        for context in contexts:
            first = suggest(whole, context, strategy)
            # A set and a frozenset of the same concepts hit one memo entry.
            assert suggest(whole, frozenset(context), strategy) is first
            assert suggest(equal, frozenset(context), strategy) is not first
            own = suggest(without_3, context, strategy)
            assert own == _scan(without_3, frozenset(context), strategy)
            assert own is not first
    for clusters in (whole, equal, without_3):
        assert len(clusters.answers) == len(contexts) * len(Strategy)
    assert suggest(without_3, {"c9"}, Strategy.SLACK).suggested == frozenset()
    assert suggest(whole, {"c9"}, Strategy.SLACK).suggested == frozenset({"c5", "c8"})


def test_strategy_members_are_stable_memo_keys():
    # Members hash by identity; every way of getting a member back must give
    # the same object, or a memo keyed by it would miss.
    clusters = ConceptClusters(WORKED_CLUSTERS)
    table = {strategy: strategy.value for strategy in Strategy}
    for strategy in Strategy:
        for same in (
            Strategy(strategy.value),
            Strategy[strategy.name],
            pickle.loads(pickle.dumps(strategy)),
            copy.copy(strategy),
            copy.deepcopy(strategy),
        ):
            assert same is strategy
            assert hash(same) == hash(strategy)
            assert table[same] == strategy.value
        first = suggest(clusters, WORKED_CONTEXT, strategy)
        assert suggest(clusters, WORKED_CONTEXT, Strategy(strategy.value)) is first
    assert copy.deepcopy(table) == table
    assert suggest(clusters, WORKED_CONTEXT, Strategy("slack")) is clusters.answers[
        (Strategy.SLACK, WORKED_CONTEXT)
    ]
    assert len(clusters.answers) == len(Strategy)


def test_cluster_producers_return_an_index_that_matches_the_members(tmp_path):
    graph = CooccurrenceGraph(
        {pair: 1 for clique in (("a", "b", "c", "d"), ("d", "e", "f"), ("g", "h"))
         for pair in combinations(clique, 2)}
    )
    cfg = CopraConfig(v=2, seed=3)
    result = copra_cluster(graph, cfg)
    path = tmp_path / "clusters.json"
    write_clusters_json(result, cfg, path)
    read, _ = read_clusters_json(path)
    for clusters in (result.clusters, read):
        assert isinstance(clusters, ConceptClusters)
        assert len(clusters) >= 2
        assert clusters.postings == _postings_of(clusters)
    assert read == result.clusters
    assert ConceptClusters().postings == {}
