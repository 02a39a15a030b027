import json
import random
from dataclasses import asdict
from statistics import fmean

import pytest

import cosuggest.evaluation
from cosuggest.config import PipelineConfig
from cosuggest.cooccurrence import build_graph, prune
from cosuggest.copra import ConceptCluster, ConceptClusters, copra_cluster
from cosuggest.evaluation import (
    _context_and_truth,
    FoldMetrics,
    LengthF1,
    _run_fold,
    copra_config,
    make_folds,
    run_experiment_on_dataset,
    summarize_folds,
)
from cosuggest.suggestion import Strategy, suggest

from conftest import (
    SessionOutcome,
    aggregate,
    f1_by_length,
    make_dataset,
    outcome_from_concept_sets,
    session_outcome,
    topic_dataset,
)


def _outcome(length, gt, suggested):
    return session_outcome(length, frozenset(gt), frozenset(suggested))


# -------------------------------------------------------------- make_folds

def _eligible_dataset(n_eligible, n_short=0):
    data = {}
    for i in range(n_eligible):
        data[f"u{i}#1"] = [{"a"}, {"b"}]
    for i in range(n_short):
        data[f"s{i}#1"] = [{"a"}]
    return make_dataset(data)


def test_folds_one_session_each():
    folds = make_folds(_eligible_dataset(10), 10, seed=1)
    assert [len(f) for f in folds] == [1] * 10


def test_fold_sizes_differ_by_at_most_one():
    folds = make_folds(_eligible_dataset(23), 10, seed=1)
    assert sorted(map(len, folds), reverse=True) == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]


def test_folds_deterministic_for_seed():
    ds = _eligible_dataset(17)
    a = make_folds(ds, 5, seed=99)
    b = make_folds(ds, 5, seed=99)
    reordered = make_folds(type(ds)(ds.sessions[::-1]), 5, seed=99)
    assert a == b == reordered


def test_folds_exclude_single_query_sessions():
    folds = make_folds(_eligible_dataset(6, n_short=5), 3, seed=0)
    held_out = [s.session_id for fold in folds for s in fold]
    assert all(sid.startswith("u") for sid in held_out)
    assert len(set(held_out)) == len(held_out) == 6


def test_folds_error_when_too_few_sessions():
    with pytest.raises(ValueError, match="need at least"):
        make_folds(_eligible_dataset(4), 10, seed=0)


def test_fold_partition_property():
    for k in (2, 5, 10):
        for seed in range(100):
            n = random.Random(seed).randint(k, 40)
            ds = _eligible_dataset(n)
            folds = make_folds(ds, k, seed)
            assert len(folds) == k
            dealt = sorted(s.session_id for fold in folds for s in fold)
            assert dealt == sorted(s.session_id for s in ds.sessions)
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == n


# ------------------------------------------------- outcome_from_concept_sets

def test_outcome_hits_arithmetic():
    clusters = ConceptClusters([ConceptCluster(0, frozenset({"c1", "c2", "c4"}))])
    concept_sets = [frozenset({"c1"}), frozenset({"c2", "c3"})]
    outcome = outcome_from_concept_sets(concept_sets, clusters, Strategy.SLACK)
    assert _context_and_truth(concept_sets)[0] == frozenset({"c1"})
    assert outcome.ground_truth == frozenset({"c2", "c3"})
    assert outcome.suggested == frozenset({"c2", "c4"})
    assert outcome.hits == 1


def test_outcome_empty_ground_truth_when_remainder_seen():
    outcome = outcome_from_concept_sets(
        [frozenset({"c1", "c2"}), frozenset({"c1"})], ConceptClusters(), Strategy.SLACK
    )
    assert outcome.ground_truth == frozenset()


def test_outcome_no_suggestions_no_hits():
    outcome = outcome_from_concept_sets(
        [frozenset({"c1"}), frozenset({"c2"})], ConceptClusters(), Strategy.SLACK
    )
    assert outcome.suggested == frozenset()
    assert outcome.hits == 0


def test_outcome_requires_two_queries():
    with pytest.raises(ValueError):
        outcome_from_concept_sets([frozenset({"c1"})], ConceptClusters(), Strategy.SLACK)


# -------------------------------------------------------------- aggregate

def test_aggregate_single_session():
    metrics = aggregate([_outcome(2, {"c2", "c3"}, {"c2", "c4"})])
    assert metrics.recall == pytest.approx(0.5)
    assert metrics.precision == pytest.approx(0.5)
    assert metrics.f1 == pytest.approx(0.5)


def test_aggregate_recall_upper_bound():
    outcomes = [_outcome(2, {"a", "b"}, {"a", "b", "c"}) for _ in range(5)]
    assert aggregate(outcomes).recall == pytest.approx(1.0)


def _hand_fixture():
    """20 outcomes with hand-computed aggregates (see assertions)."""
    outcomes = []
    for _ in range(10):  # hits 1 of |G|=2, |S|=2
        outcomes.append(_outcome(2, {"g1", "g2"}, {"g1", "n1"}))
    for _ in range(4):  # hits 2 of |G|=2, |S|=4
        outcomes.append(_outcome(3, {"g1", "g2"}, {"g1", "g2", "n1", "n2"}))
    for _ in range(2):  # no suggestions: recall 0, excluded from precision
        outcomes.append(_outcome(2, {"g1"}, set()))
    for _ in range(2):  # empty ground truth: excluded entirely
        outcomes.append(_outcome(2, set(), {"n1", "n2", "n3"}))
    for _ in range(2):  # hits 3 of |G|=3, |S|=3
        outcomes.append(_outcome(4, {"g1", "g2", "g3"}, {"g1", "g2", "g3"}))
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
    for _ in range(60):
        gt = set(rng.sample(["g1", "g2", "g3", "g4"], rng.randint(0, 4)))
        sugg = set(rng.sample(["g1", "g2", "n1", "n2"], rng.randint(0, 4)))
        outcomes.append(_outcome(rng.randint(2, 5), gt, sugg))
    metrics = aggregate(outcomes)
    scored = [o for o in outcomes if o.ground_truth]
    brute = sum(len(o.suggested & o.ground_truth) / len(o.ground_truth) for o in scored)
    assert metrics.recall == pytest.approx(brute / len(scored), abs=1e-12)


def test_all_empty_suggestions_yield_zero_recall_without_faults():
    outcomes = [_outcome(2, {"g"}, set()) for _ in range(6)]
    metrics = aggregate(outcomes)
    assert metrics.recall == 0.0
    assert metrics.precision == 0.0
    assert metrics.f1 == 0.0
    assert metrics.n_precision_sessions == 0


def test_aggregate_errors_without_scorable_sessions():
    with pytest.raises(ValueError, match="ground truth"):
        aggregate([_outcome(2, set(), {"a"})])


def test_summarize_requires_scored_fold():
    with pytest.raises(ValueError):
        summarize_folds([None, None])


# ------------------------------------------------------------ f1_by_length

def test_f1_by_length_single_row():
    outcomes = [_outcome(2, {"g"}, {"g"}) for _ in range(3)]
    assert f1_by_length(outcomes) == [LengthF1(2, 1.0, 3)]


def test_f1_by_length_grouped_means():
    outcomes = [
        _outcome(2, {"g"}, {"g"}),          # f1 = 1.0
        _outcome(2, {"g"}, set()),          # f1 = 0.0
        _outcome(3, {"g1", "g2"}, {"g1"}),  # p=1, r=0.5 -> f1 = 2/3
    ]
    rows = f1_by_length(outcomes)
    assert rows[0] == LengthF1(2, 0.5, 2)
    assert rows[1].length == 3 and rows[1].n == 1
    assert rows[1].mean_f1 == pytest.approx(2 / 3)


def test_f1_by_length_empty():
    assert f1_by_length([]) == []


def test_outcome_scoring_reads_only_the_sets():
    """An outcome whose stored hits and F1 disagree with its sets is scored from the sets."""
    stale = SessionOutcome(2, frozenset({"g"}), frozenset({"g"}), hits=0, f1=0.0)
    assert f1_by_length([stale]) == [LengthF1(2, 1.0, 1)]
    assert aggregate([stale]).f1_session_mean == 1.0


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
        blobs.append(json.dumps(asdict(report), sort_keys=True))
    assert blobs[0] == blobs[1] == blobs[2]


def test_experiment_report_shape():
    report = run_experiment_on_dataset(_experiment_dataset(), _config())
    assert list(report.strategies) == ["slack", "slack-selective", "strict"]
    assert report.fold_count == 2
    for strategy_report in report.strategies.values():
        assert len(strategy_report.folds) == 2
        payload = asdict(strategy_report)
        assert set(payload) == {"folds", "summary", "f1_by_length"}
        assert all(set(row) == {"length", "mean_f1", "n"} for row in payload["f1_by_length"])
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


def _oracle_metrics(outcomes, fold, policy):
    """Fold metrics from per-session outcomes, one session at a time."""
    scored = [o for o in outcomes if o.ground_truth]
    recalls, precisions = [], []
    for o in scored:
        recalls.append(o.hits / len(o.ground_truth))
        if o.suggested:
            precisions.append(o.hits / len(o.suggested))
        elif policy != "exclude":
            precisions.append({"zero": 0.0, "one": 1.0}[policy])
    recall = fmean(recalls)
    precision = fmean(precisions) if precisions else 0.0
    hits = [o.hits for o in scored]
    return FoldMetrics(
        fold=fold,
        n_sessions=len(outcomes),
        n_scored=len(scored),
        n_precision_sessions=len(precisions),
        recall=recall,
        precision=precision,
        f1=2 * precision * recall / (precision + recall) if precision + recall else 0.0,
        f1_session_mean=fmean(o.f1 for o in scored),
        richness_min=min(hits),
        richness_max=max(hits),
        richness_mean=fmean(hits),
    )


def _check_folds_against_oracle(monkeypatch, policy):
    """Scoring once per distinct context gives each session's own outcome.

    A fold hands back its metrics and the F1 values of its scored sessions
    by length; the metrics must equal the per-session oracle's and
    ``aggregate``'s over the fold's oracle outcomes, and the F1 values,
    pooled over the folds, give the report's rows, which must equal
    ``f1_by_length`` over every fold's oracle outcomes.
    """
    calls = []

    def counting_suggest(clusters, context, strategy):
        calls.append((context, strategy))
        return suggest(clusters, context, strategy)

    monkeypatch.setattr(cosuggest.evaluation, "suggest", counting_suggest)
    empty_contexts = empty_suggestions = 0
    for seed in range(6):
        ds = topic_dataset(100 + seed, 300, n_topics=4)
        config = _config(folds=3 + seed % 3, seed=seed, empty_suggestion_precision=policy)
        full = build_graph(ds.sessions)
        pooled = {strategy: [] for strategy in Strategy}
        for fold, test_sessions in enumerate(make_folds(ds, config.folds, config.seed)):
            calls.clear()
            held_out = build_graph(test_sessions)
            results = _run_fold(full, held_out, test_sessions, fold, config, tuple(Strategy))
            assert len(calls) == len(set(calls))

            test_ids = {s.session_id for s in test_sessions}
            train = (s for s in ds.sessions if s.session_id not in test_ids)
            graph = prune(build_graph(train), config.prune_min_weight)
            clusters = copra_cluster(graph, copra_config(config)).clusters
            contexts = {s.concepts[0] for s in test_sessions}
            empty_contexts += frozenset() in contexts
            assert set(calls) == {(c, st) for c in contexts for st in Strategy}
            for strategy in Strategy:
                expected = [
                    outcome_from_concept_sets(s.concepts, clusters, strategy)
                    for s in test_sessions
                ]
                for o in expected:
                    assert o.hits == len(o.suggested & o.ground_truth)
                    assert o.hits <= min(len(o.suggested), len(o.ground_truth))
                    empty_suggestions += bool(o.ground_truth) and not o.suggested
                f1_values = {}
                for o in expected:
                    if o.ground_truth:
                        f1_values.setdefault(o.session_length, []).append(o.f1)
                metrics = _oracle_metrics(expected, fold, policy)
                assert metrics == aggregate(expected, fold, policy)
                assert results[strategy] == (metrics, f1_values)
                pooled[strategy] += expected
        report = run_experiment_on_dataset(ds, config)
        for strategy in Strategy:
            rows = report.strategies[strategy.value].f1_by_length
            assert rows == f1_by_length(pooled[strategy])
    # Both the empty-context and the scored empty-suggestion cases were exercised.
    assert empty_contexts and empty_suggestions


def test_fold_outcomes_match_per_session_oracle(monkeypatch):
    _check_folds_against_oracle(monkeypatch, "exclude")


@pytest.mark.parametrize("policy", ["zero", "one"])
def test_fold_outcomes_match_per_session_oracle_when_empty_suggestions_score(
    monkeypatch, policy
):
    _check_folds_against_oracle(monkeypatch, policy)


def _unscorable_dataset():
    """Every two-query session repeats its first query: no ground truth anywhere."""
    data = {f"t{i}#1": [{"park", "beach"}] for i in range(10)}
    data.update({f"e{i}#1": [{"park"}, {"park"}] for i in range(4)})
    return make_dataset(data)


def test_fold_without_scorable_session_gives_none(monkeypatch):
    calls = []

    def counting_suggest(clusters, context, strategy):
        calls.append((context, strategy))
        return suggest(clusters, context, strategy)

    monkeypatch.setattr(cosuggest.evaluation, "suggest", counting_suggest)
    ds = _unscorable_dataset()
    config = _config()
    full = build_graph(ds.sessions)
    for fold, test_sessions in enumerate(make_folds(ds, config.folds, config.seed)):
        calls.clear()
        held_out = build_graph(test_sessions)
        results = _run_fold(full, held_out, test_sessions, fold, config, tuple(Strategy))
        assert results == {strategy: (None, {}) for strategy in Strategy}
        # The contexts are still answered, as for a fold that scores.
        assert calls == [(frozenset({"park"}), strategy) for strategy in Strategy]
    with pytest.raises(ValueError, match="no fold produced scorable sessions"):
        run_experiment_on_dataset(ds, config)


def test_error_while_scoring_a_fold_propagates(monkeypatch):
    """Only an empty fold gives ``None``; any other error while scoring is raised."""

    def failing_fmean(values):
        raise ValueError("fmean failed")

    monkeypatch.setattr(cosuggest.evaluation, "fmean", failing_fmean)
    ds = _experiment_dataset()
    config = _config()
    full = build_graph(ds.sessions)
    test_sessions = make_folds(ds, config.folds, config.seed)[0]
    with pytest.raises(ValueError, match="fmean failed"):
        _run_fold(full, build_graph(test_sessions), test_sessions, 0, config, tuple(Strategy))
    with pytest.raises(ValueError, match="fmean failed"):
        run_experiment_on_dataset(ds, config)
