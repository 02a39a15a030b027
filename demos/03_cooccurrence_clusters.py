#!/usr/bin/env python3
"""Build the concept co-occurrence graph and detect overlapping communities.

Each session contributes one count to every pair of concepts it
references; weak edges are pruned, and label propagation with belonging
coefficients groups the remaining concepts into (possibly overlapping)
clusters.
"""

from datetime import timedelta
from pathlib import Path

from cosuggest import (
    ConceptMatcher,
    CopraConfig,
    build_graph,
    cluster_stats,
    copra_cluster,
    load_lexicon,
    load_ontology,
    parse_log,
    prune,
    reduce_dataset,
    split_sessions,
    subset_by_facet,
)

DATA = Path(__file__).parent / "data"


def main():
    ontology = subset_by_facet(load_ontology(DATA / "city_ontology.json"), {"administrative"})
    matcher = ConceptMatcher.from_ontology(ontology, lexicon=load_lexicon(DATA / "lexicon.json"))
    sessions = split_sessions(parse_log(DATA / "search_log.tsv").records, timedelta(minutes=30))
    ds = reduce_dataset(sessions, matcher)

    graph = build_graph(ds.sessions)
    print(f"Co-occurrence graph: {len(graph.nodes)} concepts, {len(graph.edges)} edges.")
    for (a, b), w in sorted(graph.edges.items(), key=lambda kv: -kv[1]):
        print(f"  {a} -- {b}: {w}")

    pruned = prune(graph, min_weight=2)
    print(f"\nAfter pruning weight-1 edges: {len(pruned.nodes)} concepts, {len(pruned.edges)} edges.")

    result = copra_cluster(pruned, CopraConfig(v=2, max_iterations=100, seed=42))
    print(f"\nClusters (converged={result.converged} after {result.iterations} iterations):")
    for cluster in result.clusters:
        print(f"  #{cluster.id}: {{{', '.join(sorted(cluster.members))}}}")

    stats = cluster_stats(result.clusters)
    print(
        f"\n{stats.count} clusters, sizes {stats.size_min}..{stats.size_max} "
        f"(mean {stats.size_mean:.2f}), {stats.overlap_count} concepts in more than one."
    )


if __name__ == "__main__":
    main()
