#!/usr/bin/env python3
"""Cross-validated evaluation of all three strategies on the demo corpus.

Sessions with at least two queries are dealt into folds; for each fold
the clusters are retrained on the rest of the data and the strategies
are scored on the first query of each held-out session against the
concepts the user explored afterwards.
"""

from pathlib import Path

from cosuggest import PipelineConfig, reduce_from_config, run_experiment_on_dataset

DATA = Path(__file__).parent / "data"


def main():
    config = PipelineConfig(
        ontology_path=str(DATA / "city_ontology.json"),
        log_path=str(DATA / "search_log.tsv"),
        folds=5,
        seed=42,
        prune_min_weight=2,
        copra_v=2,
        lexicon_path=str(DATA / "lexicon.json"),
    )
    report = run_experiment_on_dataset(reduce_from_config(config), config)

    source = report.dataset_stats["source"]
    print(
        f"Reduced dataset: {source['sessions']} sessions, "
        f"{source['queries']} queries, {source['users']} users; "
        f"{report.fold_count}-fold cross-validation, seed {config.seed}.\n"
    )

    header = f"{'':18s} {'rich min':>8} {'rich max':>8} {'rich mean':>9} {'recall':>7} {'precision':>9} {'f1':>7}"
    print(header)
    for name, strategy_report in report.strategies.items():
        s = strategy_report.summary
        print(
            f"{name:18s} {s.richness_min:>8d} {s.richness_max:>8d} "
            f"{s.richness_mean:>9.3f} {s.recall:>7.3f} {s.precision:>9.3f} {s.f1:>7.3f}"
        )

    print("\nMean F1 by session length (slack):")
    for row in report.strategies["slack"].f1_by_length:
        print(f"  length {row.length}: {row.mean_f1:.3f}  (n={row.n})")


if __name__ == "__main__":
    main()
