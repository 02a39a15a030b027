"""Cross-validated evaluation of the suggestion strategies.

Sessions with at least two queries are shuffled with a seeded RNG and
dealt round-robin into k folds.  For each fold, clusters are trained on
everything outside it (shorter sessions always train, they are never
tested) and each strategy is scored on the fold's sessions: the context
is the concept set of the first query, the ground truth is the concepts
of the remaining queries minus the context, i.e. what the user actually
went on to explore.

Metrics are macro-averaged: per-session recall and precision are averaged
within a fold, fold values are averaged into the report.  Sessions with
an empty ground truth are excluded; sessions without suggestions are, by
default, excluded from the precision mean (configurable to count as 0 or
1 instead).  Fold F1 is the harmonic mean of the fold's precision and
recall; because the macro/micro choice is debatable, the mean of
per-session F1 values is reported alongside as ``f1_session_mean``.
Richness counts the suggested concepts the user actually explored (hits).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import timedelta
from statistics import fmean

from cosuggest.config import PipelineConfig
from cosuggest.cooccurrence import build_graph, prune
from cosuggest.copra import ConceptCluster, CopraConfig, copra_cluster
from cosuggest.log_pipeline import (
    ReducedDataset,
    parse_log,
    reduce_dataset,
    session_length_stats,
    split_sessions,
)
from cosuggest.matching import ConceptMatcher, load_lexicon
from cosuggest.ontology import load_ontology, subset_by_facet
from cosuggest.suggestion import Strategy, suggest

STRATEGY_ORDER = (Strategy.SLACK, Strategy.SLACK_SELECTIVE, Strategy.STRICT)


@dataclass(frozen=True)
class FoldPlan:
    fold_count: int
    assignments: dict[str, int]

    def fold_session_ids(self, fold: int) -> set[str]:
        return {sid for sid, f in self.assignments.items() if f == fold}


def make_folds(ds: ReducedDataset, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle of eligible (>=2 query) sessions, dealt round-robin.

    Fold sizes differ by at most one.  Raises when fewer eligible sessions
    than folds exist.
    """
    if k < 2:
        raise ValueError("fold count must be >= 2")
    eligible = sorted(s.session_id for s in ds.sessions if len(s.queries) >= 2)
    if len(eligible) < k:
        raise ValueError(
            f"only {len(eligible)} sessions with >= 2 queries, need at least {k}"
        )
    rng = random.Random(seed)
    rng.shuffle(eligible)
    return FoldPlan(
        fold_count=k,
        assignments={sid: i % k for i, sid in enumerate(eligible)},
    )


@dataclass(frozen=True)
class SessionOutcome:
    session_id: str
    session_length: int
    context: frozenset[str]
    ground_truth: frozenset[str]
    suggested: frozenset[str]
    hits: int

    def __post_init__(self) -> None:
        if self.hits > min(len(self.suggested), len(self.ground_truth)):
            raise ValueError("hits cannot exceed suggested or ground-truth size")


def outcome_from_concept_sets(
    session_id: str,
    concept_sets: Sequence[frozenset[str]],
    clusters: list[ConceptCluster],
    strategy: Strategy,
) -> SessionOutcome:
    """Score one session from its per-query concept sets (first query = context)."""
    if len(concept_sets) < 2:
        raise ValueError("evaluation needs a session with at least two queries")
    context = frozenset(concept_sets[0])
    remainder: set[str] = set()
    for cset in concept_sets[1:]:
        remainder.update(cset)
    ground_truth = frozenset(remainder - context)
    suggested = suggest(clusters, context, strategy).suggested
    return SessionOutcome(
        session_id=session_id,
        session_length=len(concept_sets),
        context=context,
        ground_truth=ground_truth,
        suggested=suggested,
        hits=len(suggested & ground_truth),
    )


def _session_f1(outcome: SessionOutcome) -> float:
    if outcome.hits == 0:
        return 0.0
    precision = outcome.hits / len(outcome.suggested)
    recall = outcome.hits / len(outcome.ground_truth)
    return 2 * precision * recall / (precision + recall)


def _harmonic(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    n_sessions: int
    n_scored: int
    n_precision_sessions: int
    recall: float
    precision: float
    f1: float
    f1_session_mean: float
    richness_min: int
    richness_max: int
    richness_mean: float

    def to_dict(self) -> dict:
        return {
            "fold": self.fold,
            "n_sessions": self.n_sessions,
            "n_scored": self.n_scored,
            "n_precision_sessions": self.n_precision_sessions,
            "recall": self.recall,
            "precision": self.precision,
            "f1": self.f1,
            "f1_session_mean": self.f1_session_mean,
            "richness_min": self.richness_min,
            "richness_max": self.richness_max,
            "richness_mean": self.richness_mean,
        }


def aggregate(
    outcomes: list[SessionOutcome],
    fold: int = 0,
    empty_suggestion_precision: str = "exclude",
) -> FoldMetrics:
    """Macro-average one (strategy, fold) batch of session outcomes.

    Sessions with empty ground truth are excluded entirely.  Sessions with
    no suggestions are excluded from the precision mean by default; pass
    ``empty_suggestion_precision="zero"`` or ``"one"`` to score them instead.
    Raises when no session is scorable.
    """
    if empty_suggestion_precision not in ("exclude", "zero", "one"):
        raise ValueError(f"unknown precision policy {empty_suggestion_precision!r}")
    scored = [o for o in outcomes if o.ground_truth]
    if not scored:
        raise ValueError("no session with non-empty ground truth to aggregate")

    recall = fmean(o.hits / len(o.ground_truth) for o in scored)

    precision_values: list[float] = []
    for outcome in scored:
        if outcome.suggested:
            precision_values.append(outcome.hits / len(outcome.suggested))
        elif empty_suggestion_precision == "zero":
            precision_values.append(0.0)
        elif empty_suggestion_precision == "one":
            precision_values.append(1.0)
    precision = fmean(precision_values) if precision_values else 0.0

    hits = [o.hits for o in scored]
    return FoldMetrics(
        fold=fold,
        n_sessions=len(outcomes),
        n_scored=len(scored),
        n_precision_sessions=len(precision_values),
        recall=recall,
        precision=precision,
        f1=_harmonic(precision, recall),
        f1_session_mean=fmean(_session_f1(o) for o in scored),
        richness_min=min(hits),
        richness_max=max(hits),
        richness_mean=fmean(hits),
    )


def f1_by_length(outcomes: list[SessionOutcome]) -> list[tuple[int, float, int]]:
    """Mean per-session F1 grouped by session length, with group sizes.

    Sessions with empty ground truth are excluded, mirroring aggregation.
    Smoothing is left to external plotting tools.
    """
    groups: dict[int, list[float]] = {}
    for outcome in outcomes:
        if not outcome.ground_truth:
            continue
        groups.setdefault(outcome.session_length, []).append(_session_f1(outcome))
    return [(length, fmean(vals), len(vals)) for length, vals in sorted(groups.items())]


@dataclass(frozen=True)
class StrategySummary:
    recall: float
    precision: float
    f1: float
    f1_session_mean: float
    richness_min: int
    richness_max: int
    richness_mean: float
    n_scored_folds: int

    def to_dict(self) -> dict:
        return {
            "recall": self.recall,
            "precision": self.precision,
            "f1": self.f1,
            "f1_session_mean": self.f1_session_mean,
            "richness_min": self.richness_min,
            "richness_max": self.richness_max,
            "richness_mean": self.richness_mean,
            "n_scored_folds": self.n_scored_folds,
        }


def summarize_folds(folds: list[FoldMetrics | None]) -> StrategySummary:
    scored = [f for f in folds if f is not None]
    if not scored:
        raise ValueError("no fold produced scorable sessions")
    return StrategySummary(
        recall=fmean(f.recall for f in scored),
        precision=fmean(f.precision for f in scored),
        f1=fmean(f.f1 for f in scored),
        f1_session_mean=fmean(f.f1_session_mean for f in scored),
        richness_min=min(f.richness_min for f in scored),
        richness_max=max(f.richness_max for f in scored),
        richness_mean=fmean(f.richness_mean for f in scored),
        n_scored_folds=len(scored),
    )


@dataclass
class StrategyReport:
    folds: list[FoldMetrics | None]
    summary: StrategySummary
    f1_by_length: list[tuple[int, float, int]]

    def to_dict(self) -> dict:
        return {
            "folds": [f.to_dict() if f is not None else None for f in self.folds],
            "summary": self.summary.to_dict(),
            "f1_by_length": [
                {"length": length, "mean_f1": mean_f1, "n": n}
                for length, mean_f1, n in self.f1_by_length
            ],
        }


@dataclass
class EvaluationReport:
    config: dict
    dataset_stats: dict
    fold_count: int
    strategies: dict[str, StrategyReport]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "dataset_stats": self.dataset_stats,
            "fold_count": self.fold_count,
            "strategies": {
                name: report.to_dict() for name, report in self.strategies.items()
            },
        }


def _run_fold(
    ds: ReducedDataset,
    plan: FoldPlan,
    fold: int,
    config: PipelineConfig,
) -> dict[Strategy, tuple[FoldMetrics | None, list[SessionOutcome]]]:
    test_ids = plan.fold_session_ids(fold)
    train = (s for s in ds.sessions if s.session_id not in test_ids)
    graph = prune(build_graph(train), config.prune_min_weight)
    clusters = copra_cluster(graph, copra_config(config)).clusters if graph.nodes else []

    test_sessions = [s for s in ds.sessions if s.session_id in test_ids]
    results: dict[Strategy, tuple[FoldMetrics | None, list[SessionOutcome]]] = {}
    for strategy in STRATEGY_ORDER:
        outcomes = [
            outcome_from_concept_sets(s.session_id, s.concepts, clusters, strategy)
            for s in test_sessions
        ]
        try:
            metrics = aggregate(
                outcomes,
                fold=fold,
                empty_suggestion_precision=config.empty_suggestion_precision,
            )
        except ValueError:
            metrics = None
        results[strategy] = (metrics, outcomes)
    return results


def run_experiment_on_dataset(
    ds: ReducedDataset, config: PipelineConfig
) -> EvaluationReport:
    """Per-fold training and scoring of all three strategies on a reduced dataset."""
    plan = make_folds(ds, config.folds, config.seed)
    fold_results = [_run_fold(ds, plan, fold, config) for fold in range(plan.fold_count)]

    strategies: dict[str, StrategyReport] = {}
    for strategy in STRATEGY_ORDER:
        folds = [result[strategy][0] for result in fold_results]
        pooled = [outcome for result in fold_results for outcome in result[strategy][1]]
        strategies[strategy.value] = StrategyReport(
            folds=folds,
            summary=summarize_folds(folds),
            f1_by_length=f1_by_length(pooled),
        )

    return EvaluationReport(
        config=config.pipeline_dict(),
        dataset_stats={
            "source": ds.stats.to_dict(),
            "session_length": session_length_stats(ds).to_dict(),
        },
        fold_count=plan.fold_count,
        strategies=strategies,
    )


def copra_config(config: PipelineConfig) -> CopraConfig:
    """The community-detection settings of a pipeline configuration."""
    return CopraConfig(
        v=config.copra_v,
        max_iterations=config.copra_max_iterations,
        seed=config.seed,
    )


def build_matcher(config: PipelineConfig) -> ConceptMatcher:
    """Load the configured ontology, apply facet exclusions and lexicon."""
    if not config.ontology_path:
        raise ValueError("ontology path is required")
    ont = load_ontology(config.ontology_path)
    ont = subset_by_facet(ont, set(config.excluded_facets))
    lexicon = load_lexicon(config.lexicon_path) if config.lexicon_path else None
    return ConceptMatcher.from_ontology(ont, lexicon=lexicon)


def reduce_from_config(config: PipelineConfig) -> ReducedDataset:
    if not config.log_path:
        raise ValueError("log path is required")
    matcher = build_matcher(config)
    parsed = parse_log(config.log_path)
    sessions = split_sessions(parsed.records, timedelta(minutes=config.gap_minutes))
    return reduce_dataset(sessions, matcher)


def run_experiment(
    log_path: str, ontology_path: str, config: PipelineConfig
) -> EvaluationReport:
    """Full pipeline: parse, sessionize, reduce, then cross-validated scoring."""
    config = config.replace(log_path=log_path, ontology_path=ontology_path)
    ds = reduce_from_config(config)
    return run_experiment_on_dataset(ds, config)
