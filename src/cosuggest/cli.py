"""Command-line surface: inspectable pipeline stages over shared configuration.

Stages can run standalone, reading the previous stage's artifact, or the
whole experiment can run fused through ``eval``.  Every artifact embeds
provenance (config hash, seed, package version); line-oriented formats
(NDJSON, TSV, CSV) carry it in a ``<artifact>.meta.json`` sidecar so their
line schemas stay clean.  Exit codes: 0 ok, 1 pipeline error, 2 usage or
I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from cosuggest.config import FIELD_NAMES, PipelineConfig, provenance, resolve_config
from cosuggest.cooccurrence import build_graph, prune, read_graph_tsv, write_graph_tsv
from cosuggest.copra import cluster_stats, copra_cluster, read_clusters_json, write_clusters_json
from cosuggest.evaluation import (
    EvaluationReport,
    build_matcher,
    copra_config,
    reduce_from_config,
    run_experiment_on_dataset,
)
from cosuggest.log_pipeline import read_reduced_ndjson, write_reduced_ndjson
from cosuggest.matching import match_query
from cosuggest.ontology import OntologyError, compute_metrics, load_ontology, subset_by_facet
from cosuggest.suggestion import Strategy, suggest


class UsageError(Exception):
    """Bad flag combination or unusable configuration value."""


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    cli_values = {key: getattr(args, key) for key in FIELD_NAMES if hasattr(args, key)}
    if cli_values.get("excluded_facets") is not None:
        cli_values["excluded_facets"] = tuple(cli_values["excluded_facets"])
    try:
        return resolve_config(config_file=args.config, cli_values=cli_values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _atomic_write(path: Path, writer) -> None:
    """Write through a temp file; a failed stage leaves no partial artifact."""
    tmp = Path(str(path) + ".tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_sidecar(path: Path, config: PipelineConfig, stage: str) -> None:
    meta = Path(str(path) + ".meta.json")
    _atomic_write(
        meta,
        lambda p: p.write_text(
            json.dumps(provenance(config, stage), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        ),
    )


def cmd_ont_metrics(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not config.ontology_path:
        raise UsageError("ont-metrics requires --ontology")
    ont = load_ontology(config.ontology_path)
    full = compute_metrics(ont)
    subset = compute_metrics(subset_by_facet(ont, set(config.excluded_facets)))
    if args.metrics_format == "json":
        print(
            json.dumps(
                {
                    "full": full.to_dict(),
                    "subset": subset.to_dict(),
                    "excluded_facets": sorted(config.excluded_facets),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    rows = [
        ("classes", full.class_count, subset.class_count),
        ("subclass relations", full.subclass_relation_count, subset.subclass_relation_count),
        ("longest root-to-leaf path (edges)", full.longest_root_to_leaf_path, subset.longest_root_to_leaf_path),
        ("mean node degree", f"{full.mean_node_degree:.3f}", f"{subset.mean_node_degree:.3f}"),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"{'metric'.ljust(width)}  {'full':>10}  {'subset':>10}")
    for name, a, b in rows:
        print(f"{name.ljust(width)}  {str(a):>10}  {str(b):>10}")
    print(f"excluded facets: {', '.join(sorted(config.excluded_facets)) or '(none)'}")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not config.log_path or not config.ontology_path:
        raise UsageError("reduce requires --log and --ontology")
    if not config.out:
        raise UsageError("reduce requires --out")
    ds = reduce_from_config(config)
    out = Path(config.out)
    _atomic_write(out, lambda p: write_reduced_ndjson(ds, p))
    _write_sidecar(out, config, "reduce")
    stats = ds.stats
    print(
        f"reduce: kept {stats.sessions} sessions, {stats.queries} queries, "
        f"{stats.users} users -> {out}"
    )
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not args.reduced:
        raise UsageError("graph requires --reduced")
    if not config.out:
        raise UsageError("graph requires --out")
    ds = read_reduced_ndjson(args.reduced)
    graph = prune(build_graph(ds.sessions), config.prune_min_weight)
    out = Path(config.out)
    _atomic_write(out, lambda p: write_graph_tsv(graph, p))
    _write_sidecar(out, config, "graph")
    print(f"graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges -> {out}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not args.graph:
        raise UsageError("cluster requires --graph")
    if not config.out:
        raise UsageError("cluster requires --out")
    graph = read_graph_tsv(args.graph)
    copra_cfg = copra_config(config)
    result = copra_cluster(graph, copra_cfg)
    out = Path(config.out)
    _atomic_write(
        out,
        lambda p: write_clusters_json(result, copra_cfg, p, provenance(config, "cluster")),
    )
    stats = cluster_stats(result.clusters)
    print(
        f"cluster: {stats.count} clusters (sizes {stats.size_min}..{stats.size_max}, "
        f"overlap {stats.overlap_count}), converged={result.converged} "
        f"after {result.iterations} iterations -> {out}"
    )
    return 0


def _report_csv(report: EvaluationReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "strategy",
            "fold",
            "richness_min",
            "richness_max",
            "richness_mean",
            "recall",
            "precision",
            "f1",
            "f1_session_mean",
            "n_sessions",
            "n_scored",
            "n_precision_sessions",
        ]
    )
    for name, strategy_report in report.strategies.items():
        for fold_metrics in strategy_report.folds:
            if fold_metrics is None:
                continue
            writer.writerow(
                [
                    name,
                    fold_metrics.fold,
                    fold_metrics.richness_min,
                    fold_metrics.richness_max,
                    fold_metrics.richness_mean,
                    fold_metrics.recall,
                    fold_metrics.precision,
                    fold_metrics.f1,
                    fold_metrics.f1_session_mean,
                    fold_metrics.n_sessions,
                    fold_metrics.n_scored,
                    fold_metrics.n_precision_sessions,
                ]
            )
        summary = strategy_report.summary
        writer.writerow(
            [
                name,
                "mean",
                summary.richness_min,
                summary.richness_max,
                summary.richness_mean,
                summary.recall,
                summary.precision,
                summary.f1,
                summary.f1_session_mean,
                "",
                "",
                "",
            ]
        )
    return buffer.getvalue()


def _f1_by_length_csv(rows: list[tuple[int, float, int]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["length", "mean_f1", "n"])
    for length, mean_f1, n in rows:
        writer.writerow([length, mean_f1, n])
    return buffer.getvalue()


def cmd_eval(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.reduced:
        ds = read_reduced_ndjson(args.reduced)
    elif config.log_path and config.ontology_path:
        ds = reduce_from_config(config)
    else:
        raise UsageError("eval requires --reduced, or --log plus --ontology")

    report = run_experiment_on_dataset(ds, config)
    if args.strategy != "all":
        wanted = Strategy.from_name(args.strategy).value
        report.strategies = {wanted: report.strategies[wanted]}

    payload = dict(report.to_dict())
    payload["provenance"] = provenance(config, "eval")

    if config.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _report_csv(report)

    if config.out:
        out = Path(config.out)
        _atomic_write(out, lambda p: p.write_text(text, encoding="utf-8"))
        _write_sidecar(out, config, "eval")
        if config.format == "csv":
            for name, strategy_report in report.strategies.items():
                side = Path(f"{out.with_suffix('')}.f1_by_length.{name}.csv")
                side_text = _f1_by_length_csv(strategy_report.f1_by_length)
                _atomic_write(side, lambda p, t=side_text: p.write_text(t, encoding="utf-8"))
        print(f"eval: report written -> {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_suggest(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not config.ontology_path:
        raise UsageError("suggest requires --ontology")
    if not args.clusters:
        raise UsageError("suggest requires --clusters")
    matcher = build_matcher(config)
    clusters, _ = read_clusters_json(args.clusters)
    context = match_query(matcher, args.query)
    suggestions = {}
    selected = {}
    for strategy in Strategy:
        result = suggest(clusters, context, strategy)
        suggestions[strategy.value] = sorted(result.suggested)
        selected[strategy.value] = list(result.selected_clusters)
    print(
        json.dumps(
            {
                "query": args.query,
                "context": sorted(context),
                "suggestions": suggestions,
                "selected_clusters": selected,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="config file (JSON or key=value)")
    parser.add_argument("--seed", type=int, default=None, dest="seed")


def _add_ontology_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ontology", default=None, dest="ontology_path")
    parser.add_argument(
        "--exclude-facet",
        action="append",
        default=None,
        dest="excluded_facets",
        help="facet tag to drop (repeatable); default: administrative",
    )
    parser.add_argument("--lexicon", default=None, dest="lexicon_path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosuggest",
        description="Session-based concept suggestion pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ont-metrics", help="structural metrics of an ontology")
    _add_common(p)
    _add_ontology_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text", dest="metrics_format")
    p.set_defaults(handler=cmd_ont_metrics)

    p = sub.add_parser("reduce", help="parse, sessionize and reduce a query log")
    _add_common(p)
    _add_ontology_flags(p)
    p.add_argument("--log", default=None, dest="log_path")
    p.add_argument("--gap-minutes", type=int, default=None, dest="gap_minutes")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("graph", help="build and prune the co-occurrence graph")
    _add_common(p)
    p.add_argument("--reduced", default=None, help="reduced dataset NDJSON")
    p.add_argument("--prune-min-weight", type=int, default=None, dest="prune_min_weight")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_graph)

    p = sub.add_parser("cluster", help="detect overlapping concept communities")
    _add_common(p)
    p.add_argument("--graph", default=None, help="graph TSV")
    p.add_argument("--copra-v", type=int, default=None, dest="copra_v")
    p.add_argument("--copra-max-iter", type=int, default=None, dest="copra_max_iterations")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_cluster)

    p = sub.add_parser("eval", help="cross-validated strategy evaluation")
    _add_common(p)
    _add_ontology_flags(p)
    p.add_argument("--log", default=None, dest="log_path")
    p.add_argument("--reduced", default=None, help="reduced dataset NDJSON (skips matching)")
    p.add_argument("--gap-minutes", type=int, default=None, dest="gap_minutes")
    p.add_argument("--prune-min-weight", type=int, default=None, dest="prune_min_weight")
    p.add_argument("--copra-v", type=int, default=None, dest="copra_v")
    p.add_argument("--copra-max-iter", type=int, default=None, dest="copra_max_iterations")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument(
        "--strategy",
        choices=("slack", "slack-selective", "strict", "all"),
        default="all",
    )
    p.add_argument(
        "--empty-suggestion-precision",
        choices=("exclude", "zero", "one"),
        default=None,
        dest="empty_suggestion_precision",
    )
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("suggest", help="one-shot suggestions for a query")
    _add_common(p)
    _add_ontology_flags(p)
    p.add_argument("--clusters", default=None, help="clusters JSON")
    p.add_argument("--query", required=True)
    p.set_defaults(handler=cmd_suggest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    stage = args.command
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"{stage}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{stage}: {exc}", file=sys.stderr)
        return 2
    except (OntologyError, ValueError) as exc:
        print(f"{stage}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
