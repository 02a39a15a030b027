import random
from itertools import chain, combinations

import pytest

from cosuggest.copra import ConceptCluster
from cosuggest.suggestion import Strategy, SuggestionResult, suggest

WORKED_CLUSTERS = [
    ConceptCluster(1, frozenset({"c1", "c3", "c7"})),
    ConceptCluster(2, frozenset({"c2", "c3", "c5", "c8"})),
    ConceptCluster(3, frozenset({"c5", "c8", "c9"})),
]
WORKED_CONTEXT = frozenset({"c1", "c3"})


def test_slack_worked_example():
    result = suggest(WORKED_CLUSTERS, WORKED_CONTEXT, Strategy.SLACK)
    assert result.suggested == frozenset({"c2", "c5", "c7", "c8"})
    assert result.selected_clusters == (1, 2)


def test_slack_selective_worked_example():
    result = suggest(WORKED_CLUSTERS, WORKED_CONTEXT, Strategy.SLACK_SELECTIVE)
    assert result.suggested == frozenset({"c7"})
    assert result.selected_clusters == (1,)


def test_strict_worked_example():
    result = suggest(WORKED_CLUSTERS, WORKED_CONTEXT, Strategy.STRICT)
    assert result.suggested == frozenset()
    assert result.selected_clusters == ()


def test_empty_context_suggests_nothing():
    for strategy in Strategy:
        result = suggest(WORKED_CLUSTERS, frozenset(), strategy)
        assert result.suggested == frozenset()
        assert result.selected_clusters == ()


def test_no_intersecting_cluster_suggests_nothing():
    for strategy in Strategy:
        assert suggest(WORKED_CLUSTERS, frozenset({"zz"}), strategy).suggested == frozenset()


def test_strict_unanimous_containment_fires():
    # Only cluster 3 touches c9 and it contains the whole context.
    result = suggest(WORKED_CLUSTERS, frozenset({"c9"}), Strategy.STRICT)
    assert result.suggested == frozenset({"c5", "c8"})
    assert result.selected_clusters == (3,)


def test_strict_equals_slack_on_singleton_contexts():
    for concept in ("c1", "c2", "c5", "c7", "c9"):
        context = frozenset({concept})
        slack = suggest(WORKED_CLUSTERS, context, Strategy.SLACK)
        strict = suggest(WORKED_CLUSTERS, context, Strategy.STRICT)
        assert strict.suggested == slack.suggested


def test_selective_tie_breaks_on_smallest_cluster_id():
    clusters = [
        ConceptCluster(4, frozenset({"x", "p"})),
        ConceptCluster(2, frozenset({"x", "q"})),
    ]
    result = suggest(clusters, frozenset({"x"}), Strategy.SLACK_SELECTIVE)
    assert result.selected_clusters == (2,)
    assert result.suggested == frozenset({"q"})


def test_suggest_is_pure():
    first = suggest(WORKED_CLUSTERS, WORKED_CONTEXT, Strategy.SLACK)
    second = suggest(WORKED_CLUSTERS, WORKED_CONTEXT, Strategy.SLACK)
    assert first == second


def test_result_invariants_hold():
    result = suggest(WORKED_CLUSTERS, WORKED_CONTEXT, Strategy.SLACK)
    assert isinstance(result, SuggestionResult)
    union = frozenset(
        chain.from_iterable(
            c.members for c in WORKED_CLUSTERS if c.id in result.selected_clusters
        )
    )
    assert result.suggested <= union
    assert not result.suggested & result.context


def _random_instance(rng: random.Random):
    universe = [f"c{i}" for i in range(12)]
    clusters = [
        ConceptCluster(i, frozenset(rng.sample(universe, rng.randint(1, 6))))
        for i in range(rng.randint(1, 8))
    ]
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
            assert not result.suggested & result.context


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
        strict = suggest(WORKED_CLUSTERS, context, Strategy.STRICT)
        if touching and all(context <= c.members for c in touching):
            assert strict.selected_clusters == tuple(sorted(c.id for c in touching))
        else:
            assert strict.selected_clusters == ()
            assert strict.suggested == frozenset()
