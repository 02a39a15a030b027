import json
import random
from collections import Counter

import pytest

from cosuggest.config import PipelineConfig
from cosuggest.copra import ConceptCluster
from cosuggest.evaluation import (
    SessionOutcome,
    aggregate,
    f1_by_length,
    make_folds,
    outcome_from_concept_sets,
    run_experiment_on_dataset,
    summarize_folds,
)
from cosuggest.suggestion import Strategy

from conftest import make_dataset


def _outcome(sid, length, context, gt, suggested):
    context, gt, suggested = frozenset(context), frozenset(gt), frozenset(suggested)
    return SessionOutcome(
        session_id=sid,
        session_length=length,
        context=context,
        ground_truth=gt,
        suggested=suggested,
        hits=len(suggested & gt),
    )


# -------------------------------------------------------------- make_folds

def _eligible_dataset(n_eligible, n_short=0):
    data = {}
    for i in range(n_eligible):
        data[f"u{i}#1"] = [{"a"}, {"b"}]
    for i in range(n_short):
        data[f"s{i}#1"] = [{"a"}]
    return make_dataset(data)


def test_folds_one_session_each():
    plan = make_folds(_eligible_dataset(10), 10, seed=1)
    assert sorted(Counter(plan.assignments.values()).values()) == [1] * 10


def test_fold_sizes_differ_by_at_most_one():
    plan = make_folds(_eligible_dataset(23), 10, seed=1)
    sizes = sorted(Counter(plan.assignments.values()).values(), reverse=True)
    assert sizes == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]


def test_folds_deterministic_for_seed():
    a = make_folds(_eligible_dataset(17), 5, seed=99)
    b = make_folds(_eligible_dataset(17), 5, seed=99)
    assert a == b


def test_folds_exclude_single_query_sessions():
    plan = make_folds(_eligible_dataset(6, n_short=5), 3, seed=0)
    assert all(sid.startswith("u") for sid in plan.assignments)
    assert len(plan.assignments) == 6


def test_folds_error_when_too_few_sessions():
    with pytest.raises(ValueError, match="need at least"):
        make_folds(_eligible_dataset(4), 10, seed=0)


def test_fold_partition_property():
    for k in (2, 5, 10):
        for seed in range(100):
            n = random.Random(seed).randint(k, 40)
            ds = _eligible_dataset(n)
            plan = make_folds(ds, k, seed)
            assert set(plan.assignments) == {s.session_id for s in ds.sessions}
            sizes = Counter(plan.assignments.values())
            assert set(sizes) <= set(range(k))
            assert max(sizes.values()) - min(sizes.values()) <= 1
            assert sum(sizes.values()) == n


# ------------------------------------------------- outcome_from_concept_sets

def test_outcome_hits_arithmetic():
    clusters = [ConceptCluster(0, frozenset({"c1", "c2", "c4"}))]
    outcome = outcome_from_concept_sets(
        "s", [frozenset({"c1"}), frozenset({"c2", "c3"})], clusters, Strategy.SLACK
    )
    assert outcome.context == frozenset({"c1"})
    assert outcome.ground_truth == frozenset({"c2", "c3"})
    assert outcome.suggested == frozenset({"c2", "c4"})
    assert outcome.hits == 1


def test_outcome_empty_ground_truth_when_remainder_seen():
    outcome = outcome_from_concept_sets(
        "s", [frozenset({"c1", "c2"}), frozenset({"c1"})], [], Strategy.SLACK
    )
    assert outcome.ground_truth == frozenset()


def test_outcome_no_suggestions_no_hits():
    outcome = outcome_from_concept_sets(
        "s", [frozenset({"c1"}), frozenset({"c2"})], [], Strategy.SLACK
    )
    assert outcome.suggested == frozenset()
    assert outcome.hits == 0


def test_outcome_requires_two_queries():
    with pytest.raises(ValueError):
        outcome_from_concept_sets("s", [frozenset({"c1"})], [], Strategy.SLACK)


def test_outcome_invariant_enforced():
    with pytest.raises(ValueError):
        SessionOutcome("s", 2, frozenset(), frozenset({"a"}), frozenset(), hits=2)


# -------------------------------------------------------------- aggregate

def test_aggregate_single_session():
    metrics = aggregate([_outcome("s", 2, {"c1"}, {"c2", "c3"}, {"c2", "c4"})])
    assert metrics.recall == pytest.approx(0.5)
    assert metrics.precision == pytest.approx(0.5)
    assert metrics.f1 == pytest.approx(0.5)


def test_aggregate_recall_upper_bound():
    outcomes = [
        _outcome(f"s{i}", 2, {"x"}, {"a", "b"}, {"a", "b", "c"}) for i in range(5)
    ]
    assert aggregate(outcomes).recall == pytest.approx(1.0)


def _hand_fixture():
    """20 outcomes with hand-computed aggregates (see assertions)."""
    outcomes = []
    for i in range(10):  # hits 1 of |G|=2, |S|=2
        outcomes.append(_outcome(f"a{i}", 2, {"x"}, {"g1", "g2"}, {"g1", "n1"}))
    for i in range(4):  # hits 2 of |G|=2, |S|=4
        outcomes.append(
            _outcome(f"b{i}", 3, {"x"}, {"g1", "g2"}, {"g1", "g2", "n1", "n2"})
        )
    for i in range(2):  # no suggestions: recall 0, excluded from precision
        outcomes.append(_outcome(f"c{i}", 2, {"x"}, {"g1"}, set()))
    for i in range(2):  # empty ground truth: excluded entirely
        outcomes.append(_outcome(f"d{i}", 2, {"x"}, set(), {"n1", "n2", "n3"}))
    for i in range(2):  # hits 3 of |G|=3, |S|=3
        outcomes.append(_outcome(f"e{i}", 4, {"x"}, {"g1", "g2", "g3"}, {"g1", "g2", "g3"}))
    return outcomes


def test_metric_oracle_on_hand_fixture():
    metrics = aggregate(_hand_fixture())
    assert metrics.n_sessions == 20
    assert metrics.n_scored == 18          # 2 empty-ground-truth sessions excluded
    assert metrics.n_precision_sessions == 16  # 2 no-suggestion sessions excluded
    # recall = (10*0.5 + 4*1.0 + 2*0.0 + 2*1.0) / 18 = 11/18
    assert metrics.recall == pytest.approx(11 / 18, abs=1e-12)
    # precision = (10*0.5 + 4*0.5 + 2*1.0) / 16 = 9/16
    assert metrics.precision == pytest.approx(9 / 16, abs=1e-12)
    # f1 = 2PR/(P+R) = 99/169
    assert metrics.f1 == pytest.approx(99 / 169, abs=1e-12)
    # per-session f1: 10 * 1/2, 4 * 2/3, 2 * 0, 2 * 1 -> mean 29/54
    assert metrics.f1_session_mean == pytest.approx(29 / 54, abs=1e-12)
    # richness over scored sessions: hits 10*1, 4*2, 2*0, 2*3
    assert metrics.richness_min == 0
    assert metrics.richness_max == 3
    assert metrics.richness_mean == pytest.approx(24 / 18, abs=1e-12)


def test_empty_suggestion_precision_policies():
    outcomes = _hand_fixture()
    zero = aggregate(outcomes, empty_suggestion_precision="zero")
    assert zero.precision == pytest.approx(9 / 18, abs=1e-12)
    assert zero.n_precision_sessions == 18
    one = aggregate(outcomes, empty_suggestion_precision="one")
    assert one.precision == pytest.approx(11 / 18, abs=1e-12)
    with pytest.raises(ValueError):
        aggregate(outcomes, empty_suggestion_precision="half")


def test_aggregate_macro_recall_matches_brute_force():
    rng = random.Random(5)
    outcomes = []
    for i in range(60):
        gt = set(rng.sample(["g1", "g2", "g3", "g4"], rng.randint(0, 4)))
        sugg = set(rng.sample(["g1", "g2", "n1", "n2"], rng.randint(0, 4)))
        outcomes.append(_outcome(f"s{i}", rng.randint(2, 5), {"x"}, gt, sugg))
    metrics = aggregate(outcomes)
    scored = [o for o in outcomes if o.ground_truth]
    brute = sum(len(o.suggested & o.ground_truth) / len(o.ground_truth) for o in scored)
    assert metrics.recall == pytest.approx(brute / len(scored), abs=1e-12)


def test_all_empty_suggestions_yield_zero_recall_without_faults():
    outcomes = [_outcome(f"s{i}", 2, {"x"}, {"g"}, set()) for i in range(6)]
    metrics = aggregate(outcomes)
    assert metrics.recall == 0.0
    assert metrics.precision == 0.0
    assert metrics.f1 == 0.0
    assert metrics.n_precision_sessions == 0


def test_aggregate_errors_without_scorable_sessions():
    with pytest.raises(ValueError, match="ground truth"):
        aggregate([_outcome("s", 2, {"x"}, set(), {"a"})])


def test_summarize_requires_scored_fold():
    with pytest.raises(ValueError):
        summarize_folds([None, None])


# ------------------------------------------------------------ f1_by_length

def test_f1_by_length_single_row():
    outcomes = [_outcome(f"s{i}", 2, {"x"}, {"g"}, {"g"}) for i in range(3)]
    assert f1_by_length(outcomes) == [(2, 1.0, 3)]


def test_f1_by_length_grouped_means():
    outcomes = [
        _outcome("s1", 2, {"x"}, {"g"}, {"g"}),          # f1 = 1.0
        _outcome("s2", 2, {"x"}, {"g"}, set()),          # f1 = 0.0
        _outcome("s3", 3, {"x"}, {"g1", "g2"}, {"g1"}),  # p=1, r=0.5 -> f1 = 2/3
    ]
    rows = f1_by_length(outcomes)
    assert rows[0] == (2, 0.5, 2)
    assert rows[1][0] == 3 and rows[1][2] == 1
    assert rows[1][1] == pytest.approx(2 / 3)


def test_f1_by_length_empty():
    assert f1_by_length([]) == []


# ---------------------------------------------------------- run_experiment

def _experiment_dataset():
    """Trainer sessions teach clusters {park,beach} and {museum,library}.

    Single-query sessions are ineligible for folds, so they always train;
    the six two-query sessions are dealt into the folds and tested.
    """
    data = {}
    for i in range(20):
        data[f"t{i}#1"] = [{"park", "beach"}]
        data[f"m{i}#1"] = [{"museum", "library"}]
    for i in range(3):
        data[f"e{i}#1"] = [{"park"}, {"beach"}]
        data[f"f{i}#1"] = [{"museum"}, {"library"}]
    return make_dataset(data)


def _config(**kw):
    defaults = dict(folds=2, seed=42, prune_min_weight=2, copra_v=2)
    defaults.update(kw)
    return PipelineConfig(**defaults)


def test_experiment_learns_pair_cluster_perfectly():
    report = run_experiment_on_dataset(_experiment_dataset(), _config())
    slack = report.strategies["slack"]
    assert slack.summary.recall == pytest.approx(1.0)
    assert slack.summary.precision == pytest.approx(1.0)
    assert slack.summary.f1 == pytest.approx(1.0)
    assert slack.summary.richness_mean == pytest.approx(1.0)
    assert report.strategies["strict"].summary.recall == pytest.approx(1.0)


def test_experiment_report_deterministic_including_threads():
    # Folds run sequentially; the name keeps the test's id stable.
    ds = _experiment_dataset()
    blobs = []
    for _ in range(3):
        report = run_experiment_on_dataset(ds, _config())
        blobs.append(json.dumps(report.to_dict(), sort_keys=True))
    assert blobs[0] == blobs[1] == blobs[2]


def test_experiment_report_shape():
    report = run_experiment_on_dataset(_experiment_dataset(), _config())
    assert list(report.strategies) == ["slack", "slack-selective", "strict"]
    assert report.fold_count == 2
    for strategy_report in report.strategies.values():
        assert len(strategy_report.folds) == 2
        payload = strategy_report.to_dict()
        assert set(payload) == {"folds", "summary", "f1_by_length"}
        for key in (
            "richness_min",
            "richness_max",
            "richness_mean",
            "recall",
            "precision",
            "f1",
        ):
            assert key in payload["summary"]
    stats = report.dataset_stats
    assert stats["source"]["sessions"] == 46
    assert "session_length" in stats


def test_experiment_rates_within_bounds():
    rng = random.Random(77)
    data = {}
    concepts = ["a", "b", "c", "d", "e"]
    for i in range(30):
        n = rng.randint(1, 4)
        data[f"u{i}#1"] = [
            set(rng.sample(concepts, rng.randint(1, 3))) for _ in range(n)
        ]
    report = run_experiment_on_dataset(make_dataset(data), _config(prune_min_weight=1))
    for strategy_report in report.strategies.values():
        summary = strategy_report.summary
        assert 0.0 <= summary.recall <= 1.0
        assert 0.0 <= summary.precision <= 1.0
        assert 0.0 <= summary.f1 <= 1.0
        assert summary.richness_mean <= summary.richness_max
