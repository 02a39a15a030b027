#!/usr/bin/env python3
"""Suggest concepts for fresh queries under the three selection strategies.

Also replays a three-cluster textbook case that separates the strategies:
SLACK unions every cluster touching the context, SLACK-SELECTIVE keeps
only the best-matching cluster, and STRICT answers only when every
touching cluster contains the whole context.
"""

from datetime import timedelta
from pathlib import Path

from cosuggest import (
    ConceptCluster,
    ConceptClusters,
    ConceptMatcher,
    CopraConfig,
    Strategy,
    build_graph,
    copra_cluster,
    load_lexicon,
    load_ontology,
    match_query,
    parse_log,
    prune,
    reduce_dataset,
    split_sessions,
    subset_by_facet,
    suggest,
)

DATA = Path(__file__).parent / "data"


def textbook_case():
    clusters = ConceptClusters(
        [
            ConceptCluster(1, frozenset({"c1", "c3", "c7"})),
            ConceptCluster(2, frozenset({"c2", "c3", "c5", "c8"})),
            ConceptCluster(3, frozenset({"c5", "c8", "c9"})),
        ]
    )
    context = frozenset({"c1", "c3"})
    print(f"Textbook case, context {sorted(context)}:")
    for strategy in Strategy:
        result = suggest(clusters, context, strategy)
        print(f"  {strategy.value:16s} -> {sorted(result.suggested) or '{}'} "
              f"(clusters {list(result.selected_clusters) or '-'})")
    print()


def main():
    textbook_case()

    ontology = subset_by_facet(load_ontology(DATA / "city_ontology.json"), {"administrative"})
    matcher = ConceptMatcher.from_ontology(ontology, lexicon=load_lexicon(DATA / "lexicon.json"))
    sessions = split_sessions(parse_log(DATA / "search_log.tsv").records, timedelta(minutes=30))
    ds = reduce_dataset(sessions, matcher)
    graph = prune(build_graph(ds.sessions), min_weight=2)
    clusters = copra_cluster(graph, CopraConfig(v=2, seed=42)).clusters

    for query in ("sunny beach day", "parks and playgrounds", "good restaurants", "mall hours"):
        context = match_query(matcher, query)
        print(f"Query {query!r} -> context {sorted(context)}")
        for strategy in Strategy:
            suggested = suggest(clusters, context, strategy).suggested
            print(f"  {strategy.value:16s} suggests {sorted(suggested) or '{}'}")
        print()


if __name__ == "__main__":
    main()
