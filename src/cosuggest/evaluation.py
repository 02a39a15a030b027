"""Cross-validated evaluation of the suggestion strategies.

Sessions with at least two queries are sorted by id, shuffled with a
seeded RNG and dealt round-robin into k folds of held-out sessions.  For
each fold, clusters are trained on everything outside it (shorter
sessions always train, they are never tested) and each strategy is scored
on the fold's sessions: the context is the concept set of the first query,
the ground truth is the concepts of the remaining queries minus the
context, i.e. what the user actually went on to explore.

Each session's co-occurrence pairs are counted once.  Each fold's held-out
graph is built once; the graph of all sessions is the sum of those graphs
plus the graph of the single-query sessions, which are never held out.  A
fold's training graph is the full graph minus its held-out graph: a weight
counts sessions, so the difference is exactly the graph of the training
sessions.  Within a fold each distinct context is passed to ``suggest``
once per strategy (``suggest`` is pure); its sessions share the answer.
A fold is scored in columns (one list per quantity, one entry per scored
session) and hands back its metrics and the per-length F1 values of its
scored sessions.  Every metric is an ``fmean`` (``math.fsum``-based, so exactly
rounded), a min, a max or a count: the order in which sessions are scored
moves no byte.

Metrics are macro-averaged: per-session recall and precision are averaged
within a fold, fold values are averaged into the report.  Sessions with
an empty ground truth are excluded; sessions without suggestions are, by
default, excluded from the precision mean (configurable to count as 0 or
1 instead).  Fold F1 is the harmonic mean of the fold's precision and
recall; because the macro/micro choice is debatable, the mean of
per-session F1 values is reported alongside as ``f1_session_mean``.
Richness counts the suggested concepts the user actually explored (hits).

The report's dataclasses are its schema: the JSON report is the ``asdict``
of an :class:`EvaluationReport` and the CSV columns are their fields.
"""

from __future__ import annotations

import csv
import io
import random
from collections.abc import Sequence
from dataclasses import asdict, astuple, dataclass, fields
from datetime import timedelta
from operator import and_
from statistics import fmean

from cosuggest.config import PRECISION_POLICIES, PipelineConfig
from cosuggest.cooccurrence import CooccurrenceGraph, build_graph, prune
from cosuggest.copra import ConceptClusters, CopraConfig, copra_cluster
from cosuggest.log_pipeline import (
    ReducedDataset,
    SearchSession,
    parse_log,
    reduce_dataset,
    session_length_stats,
    split_sessions,
)
from cosuggest.matching import ConceptMatcher, load_lexicon
from cosuggest.ontology import load_ontology, subset_by_facet
from cosuggest.suggestion import Strategy, suggest


def make_folds(ds: ReducedDataset, k: int, seed: int) -> list[list[SearchSession]]:
    """Seeded shuffle of eligible (>=2 query) sessions, dealt round-robin.

    The eligible sessions are sorted by id before the shuffle, so the folds
    depend on the ids and the seed only, not on the order of ``ds``.
    Returns the k held-out session lists, in shuffle order: a partition of
    the eligible sessions whose sizes differ by at most one.  Raises when
    fewer eligible sessions than folds exist.
    """
    if k < 2:
        raise ValueError("fold count must be >= 2")
    eligible = [s for s in ds.sessions if _testable(s)]
    eligible.sort(key=lambda s: s.session_id)
    if len(eligible) < k:
        raise ValueError(
            f"only {len(eligible)} sessions with >= 2 queries, need at least {k}"
        )
    rng = random.Random(seed)
    rng.shuffle(eligible)
    return [eligible[fold::k] for fold in range(k)]


def _testable(session: SearchSession) -> bool:
    """Whether a session can be held out: it needs a context and a later query."""
    return len(session.concepts) >= 2


def _context_and_truth(
    concept_sets: Sequence[frozenset[str]],
) -> tuple[frozenset[str], frozenset[str]]:
    """The first query's concepts, and the later queries' concepts not among them."""
    if len(concept_sets) < 2:
        raise ValueError("evaluation needs a session with at least two queries")
    context = frozenset(concept_sets[0])
    return context, frozenset().union(*concept_sets[1:]) - context


def _harmonic(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class Metrics:
    """The metric columns shared by a fold's row and a strategy's mean row."""

    richness_min: int
    richness_max: int
    richness_mean: float
    recall: float
    precision: float
    f1: float
    f1_session_mean: float


@dataclass(frozen=True)
class FoldMetrics(Metrics):
    fold: int
    n_sessions: int
    n_scored: int
    n_precision_sessions: int


def _score_columns(
    truths: Sequence[frozenset[str]],
    suggested: Sequence[frozenset[str]],
    n_sessions: int,
    fold: int,
    empty_suggestion_precision: str,
) -> tuple[FoldMetrics, list[float]]:
    """The metrics of one (strategy, fold), and the F1 of each of its sessions.

    ``truths`` and ``suggested`` are columns: entry i of each belongs to the
    i-th scored session, whose ground truth must be non-empty; at least one
    session must be given.  ``n_sessions`` counts the unscored ones too.
    """
    if empty_suggestion_precision not in PRECISION_POLICIES:
        raise ValueError(f"unknown precision policy {empty_suggestion_precision!r}")
    hits = list(map(len, map(and_, suggested, truths)))
    recalls = [h / len(t) for h, t in zip(hits, truths)]
    if empty_suggestion_precision == "exclude":
        precisions = [h / len(s) for h, s in zip(hits, suggested) if s]
    else:
        empty = 0.0 if empty_suggestion_precision == "zero" else 1.0
        precisions = [h / len(s) if s else empty for h, s in zip(hits, suggested)]
    f1s = [
        _harmonic(h / len(s), r) if h else 0.0 for h, s, r in zip(hits, suggested, recalls)
    ]
    recall = fmean(recalls)
    precision = fmean(precisions) if precisions else 0.0
    metrics = FoldMetrics(
        fold=fold,
        n_sessions=n_sessions,
        n_scored=len(truths),
        n_precision_sessions=len(precisions),
        recall=recall,
        precision=precision,
        f1=_harmonic(precision, recall),
        f1_session_mean=fmean(f1s),
        richness_min=min(hits),
        richness_max=max(hits),
        richness_mean=fmean(hits),
    )
    return metrics, f1s


@dataclass(frozen=True)
class LengthF1:
    length: int
    mean_f1: float
    n: int


def _by_length(lengths: Sequence[int], f1s: Sequence[float]) -> dict[int, list[float]]:
    """The F1 values of a column of sessions, grouped by session length."""
    groups: dict[int, list[float]] = {}
    for length, f1 in zip(lengths, f1s):
        groups.setdefault(length, []).append(f1)
    return groups


def _length_rows(groups: dict[int, list[float]]) -> list[LengthF1]:
    # ``fmean`` sums exactly, so the order the values were pooled in moves no byte.
    return [
        LengthF1(length, fmean(vals), len(vals)) for length, vals in sorted(groups.items())
    ]


@dataclass(frozen=True)
class StrategySummary(Metrics):
    n_scored_folds: int


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
    f1_by_length: list[LengthF1]


@dataclass
class EvaluationReport:
    config: dict
    dataset_stats: dict
    fold_count: int
    strategies: dict[str, StrategyReport]


_METRIC_COLUMNS = [f.name for f in fields(Metrics)]
# FoldMetrics lists its own fields after the shared ones: ``fold``, then counts.
_COUNT_COLUMNS = [f.name for f in fields(FoldMetrics)][len(_METRIC_COLUMNS) + 1 :]


def report_csv(report: EvaluationReport) -> str:
    """One row per scored fold and one ``mean`` row per strategy."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["strategy", "fold", *_METRIC_COLUMNS, *_COUNT_COLUMNS])
    for name, strategy_report in report.strategies.items():
        for metrics in strategy_report.folds:
            if metrics is not None:
                values = [getattr(metrics, c) for c in _METRIC_COLUMNS + _COUNT_COLUMNS]
                writer.writerow([name, metrics.fold, *values])
        summary = [getattr(strategy_report.summary, c) for c in _METRIC_COLUMNS]
        writer.writerow([name, "mean", *summary, *[""] * len(_COUNT_COLUMNS)])
    return buffer.getvalue()


def f1_by_length_csv(rows: list[LengthF1]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([f.name for f in fields(LengthF1)])
    writer.writerows(astuple(row) for row in rows)
    return buffer.getvalue()


def _run_fold(
    full: CooccurrenceGraph,
    held_out: CooccurrenceGraph,
    test_sessions: list[SearchSession],
    fold: int,
    config: PipelineConfig,
    strategies: Sequence[Strategy],
) -> dict[Strategy, tuple[FoldMetrics | None, dict[int, list[float]]]]:
    """Each strategy's metrics on the fold, with its F1 values by session length.

    ``held_out`` is ``build_graph(test_sessions)``; a fold without a session
    to score gets ``None`` metrics.
    """
    graph = prune(full - held_out, config.prune_min_weight)
    clusters = (
        copra_cluster(graph, copra_config(config)).clusters
        if graph.edges
        else ConceptClusters()
    )

    pairs = [_context_and_truth(session.concepts) for session in test_sessions]
    # Every context is answered, so each strategy asks ``suggest`` the same
    # questions whether or not a session scores.
    distinct_contexts = dict.fromkeys(context for context, _ in pairs)
    scored = [
        (context, truth, len(session.concepts))
        for session, (context, truth) in zip(test_sessions, pairs)
        if truth
    ]
    contexts, truths, lengths = zip(*scored) if scored else ((), (), ())
    results: dict[Strategy, tuple[FoldMetrics | None, dict[int, list[float]]]] = {}
    for strategy in strategies:
        answers = {c: suggest(clusters, c, strategy).suggested for c in distinct_contexts}
        if not scored:
            results[strategy] = (None, {})
            continue
        metrics, f1s = _score_columns(
            truths,
            [answers[c] for c in contexts],
            len(test_sessions),
            fold,
            config.empty_suggestion_precision,
        )
        results[strategy] = (metrics, _by_length(lengths, f1s))
    return results


def run_experiment_on_dataset(
    ds: ReducedDataset,
    config: PipelineConfig,
    strategies: Sequence[Strategy] = tuple(Strategy),
) -> EvaluationReport:
    """Per-fold training, then scoring of the given strategies on a reduced dataset."""
    held_out = make_folds(ds, config.folds, config.seed)
    fold_graphs = [build_graph(test_sessions) for test_sessions in held_out]
    full = sum(fold_graphs, build_graph(s for s in ds.sessions if not _testable(s)))
    # Popping hands each fold its graph and drops it once the fold is scored.
    fold_results = [
        _run_fold(full, fold_graphs.pop(0), test_sessions, fold, config, strategies)
        for fold, test_sessions in enumerate(held_out)
    ]

    per_strategy: dict[str, StrategyReport] = {}
    for strategy in strategies:
        folds = [result[strategy][0] for result in fold_results]
        pooled: dict[int, list[float]] = {}
        for result in fold_results:
            for length, values in result[strategy][1].items():
                pooled.setdefault(length, []).extend(values)
        per_strategy[strategy.value] = StrategyReport(
            folds=folds,
            summary=summarize_folds(folds),
            f1_by_length=_length_rows(pooled),
        )

    return EvaluationReport(
        config=config.pipeline_dict(),
        dataset_stats={
            "source": asdict(ds.stats),
            "session_length": session_length_stats(ds).to_dict(),
        },
        fold_count=config.folds,
        strategies=per_strategy,
    )


def copra_config(config: PipelineConfig) -> CopraConfig:
    """The community-detection settings of a pipeline configuration."""
    return CopraConfig(
        v=config.copra_v,
        max_iterations=config.copra_max_iterations,
        seed=config.seed,
    )


def build_matcher(config: PipelineConfig) -> ConceptMatcher:
    """Load the configured ontology, apply facet exclusions and lexicon.

    Lexicon entries for classes that the facet exclusion removed are
    dropped; an entry for the root or for a class the ontology never defined
    still raises, naming the lexicon file.
    """
    if not config.ontology_path:
        raise ValueError("ontology path is required")
    full = load_ontology(config.ontology_path)
    ont = subset_by_facet(full, set(config.excluded_facets))
    lexicon = load_lexicon(config.lexicon_path) if config.lexicon_path else {}
    excluded = full.classes.keys() - ont.classes.keys()
    lexicon = {cid: phrases for cid, phrases in lexicon.items() if cid not in excluded}
    try:
        return ConceptMatcher.from_ontology(ont, lexicon=lexicon)
    except ValueError as exc:  # only a lexicon entry can be at fault
        raise ValueError(f"{config.lexicon_path}: {exc}") from exc


def reduce_from_config(config: PipelineConfig) -> ReducedDataset:
    if not config.log_path:
        raise ValueError("log path is required")
    matcher = build_matcher(config)
    parsed = parse_log(config.log_path)
    sessions = split_sessions(parsed.records, timedelta(minutes=config.gap_minutes))
    return reduce_dataset(sessions, matcher)

