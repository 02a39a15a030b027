"""Session-based concept suggestion toolkit.

Pipeline: parse a search-engine query log, split it into temporal
sessions, map queries to concepts of an annotated ontology, build a
session-level concept co-occurrence graph, detect overlapping concept
communities, and suggest concepts for new sessions under three
strategies.  A cross-validated harness measures richness, recall,
precision and F1 of the suggestions.
"""

from cosuggest.ontology import (
    OntClass,
    Ontology,
    OntologyError,
    OntologyMetrics,
    compute_metrics,
    load_ontology,
    ontology_from_dict,
    subset_by_facet,
)
from cosuggest.matching import (
    ConceptMatcher,
    load_lexicon,
    match_query,
    normalize,
)
from cosuggest.log_pipeline import (
    LengthStats,
    ParseResult,
    ReducedDataset,
    SearchSession,
    SourceStats,
    parse_log,
    read_reduced_ndjson,
    reduce_dataset,
    session_length_stats,
    split_sessions,
    write_reduced_ndjson,
)
from cosuggest.cooccurrence import (
    CooccurrenceGraph,
    build_graph,
    prune,
    read_graph_tsv,
    write_graph_tsv,
)
from cosuggest.copra import (
    ClusterStats,
    ConceptCluster,
    ConceptClusters,
    CopraConfig,
    CopraResult,
    cluster_stats,
    copra_cluster,
    read_clusters_json,
    write_clusters_json,
)
from cosuggest.suggestion import Strategy, SuggestionResult, suggest
from cosuggest.evaluation import (
    EvaluationReport,
    FoldMetrics,
    make_folds,
    reduce_from_config,
    run_experiment_on_dataset,
)
from cosuggest.config import PipelineConfig, config_hash

__version__ = "0.1.0"

__all__ = [
    "ClusterStats",
    "ConceptCluster",
    "ConceptClusters",
    "ConceptMatcher",
    "CooccurrenceGraph",
    "CopraConfig",
    "CopraResult",
    "EvaluationReport",
    "FoldMetrics",
    "LengthStats",
    "OntClass",
    "Ontology",
    "OntologyError",
    "OntologyMetrics",
    "ParseResult",
    "PipelineConfig",
    "ReducedDataset",
    "SearchSession",
    "SourceStats",
    "Strategy",
    "SuggestionResult",
    "build_graph",
    "cluster_stats",
    "compute_metrics",
    "config_hash",
    "copra_cluster",
    "load_lexicon",
    "load_ontology",
    "make_folds",
    "match_query",
    "normalize",
    "ontology_from_dict",
    "parse_log",
    "prune",
    "read_clusters_json",
    "read_graph_tsv",
    "read_reduced_ndjson",
    "reduce_dataset",
    "reduce_from_config",
    "run_experiment_on_dataset",
    "session_length_stats",
    "split_sessions",
    "subset_by_facet",
    "suggest",
    "write_clusters_json",
    "write_graph_tsv",
    "write_reduced_ndjson",
]
